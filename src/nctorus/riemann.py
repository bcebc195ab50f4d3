"""Riemann forms, Frobenius bases, and the classical abelian-variety tests.

A complex structure J on the rank-2n lattice is of algebraic type when
some integer alternating form E satisfies J^T E J = E and the associated
hermitian form H(v, w) = E_R(J v, w) + i E_R(v, w) is positive definite.
This module searches for such forms inside a bounded set of integer
combinations of the compatibility kernel, canonicalizes them with exact
integer Frobenius reduction, splits them into decomposable pieces, and
feeds the leading piece to the elliptic-curve spectral bound.

Search semantics are deliberately bounded: a negative verdict always
means "none within bound B relative to the reported kernel basis", never
a blanket nonexistence claim.  When the input data is rational the whole
pipeline (kernel, enumeration, positivity) runs in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import ThetaMatrix
from .complexstruct import ComplexStructure, PeriodMatrix, period_from_j
from .dolbeault import HypothesisError
from .heisenberg1d import StandardModule1D, standard_module_cohomology
from .lattice import (
    fraction_det,
    fraction_matrix,
    fraction_rref,
    fraction_solve,
    integer_kernel,
    is_positive_definite_exact,
    lll_reduce,
    primitive_vector,
)

COMPAT_TOL = 1e-8


class IncompatibleFormError(ValueError):
    """The form does not satisfy J^T E J = E within tolerance."""


class DegenerateFormError(ValueError):
    """An operation that needs det E != 0 received a degenerate form."""


class InternalCheckError(RuntimeError):
    """An exact self-check of a computed result failed (a program fault)."""


@dataclass(frozen=True)
class IntegerSkewForm:
    """Integer alternating form on the lattice."""

    E: np.ndarray

    def __post_init__(self):
        E = np.array(self.E, dtype=object)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ValueError("E must be square")
        for i in range(E.shape[0]):
            for j in range(E.shape[1]):
                E[i, j] = int(E[i, j])
        if any(E[i, j] != -E[j, i] for i in range(E.shape[0]) for j in range(E.shape[1])):
            raise ValueError("E must be skew-symmetric exactly")
        E.setflags(write=False)
        object.__setattr__(self, "E", E)

    @property
    def size(self) -> int:
        return self.E.shape[0]

    def as_float(self) -> np.ndarray:
        return self.E.astype(float)

    def det(self) -> int:
        return int(fraction_det(fraction_matrix(self.E.tolist())))

    @classmethod
    def standard_symplectic(cls, n: int, scale: int = 1) -> "IntegerSkewForm":
        E = np.zeros((2 * n, 2 * n), dtype=int)
        E[:n, n:] = scale * np.eye(n, dtype=int)
        E[n:, :n] = -scale * np.eye(n, dtype=int)
        return cls(E)


@dataclass(frozen=True)
class FrobeniusBasis:
    """Unimodular column basis bringing E to the canonical alternating form."""

    U: np.ndarray
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class HermitianFormReport:
    """H in holomorphic coordinates, its spectrum, and the compatibility residual."""

    H: np.ndarray
    eigenvalues: np.ndarray
    residual: float

    def positivity(self) -> str:
        margin = 1e-9 * float(np.sum(np.abs(self.H.diagonal().real)) + 1.0)
        lo = float(self.eigenvalues.min())
        if lo > margin:
            return "positive"
        if lo < -margin:
            return "not_positive"
        return "borderline"


# -- hermitian form -----------------------------------------------------


def _compat_residual(E: np.ndarray, J: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(E))))
    return float(np.max(np.abs(J.T @ E @ J - E))) / scale


def hermitian_from_form(E: IntegerSkewForm, cs: ComplexStructure,
                        require_compatible: bool = True) -> HermitianFormReport:
    """H(v, w) = E_R(J v, w) + i E_R(v, w) in holomorphic coordinates.

    H is taken linear in its first argument.  The coordinates come from
    the pivot-normalized period matrix of cs.
    """
    Ef = E.as_float() if isinstance(E, IntegerSkewForm) else np.asarray(E, dtype=float)
    J = cs.J
    residual = _compat_residual(Ef, J)
    if require_compatible and residual > COMPAT_TOL:
        raise IncompatibleFormError(
            f"J^T E J - E has relative residual {residual:.3e} > {COMPAT_TOL:.0e}"
        )
    Q = period_from_j(cs).Q
    n = cs.n
    P = np.vstack([Q, Q.conj()])
    target = np.vstack([np.eye(n), np.eye(n)]).astype(complex)
    X = np.linalg.solve(P, target)
    if np.max(np.abs(X.imag)) > 1e-9:
        raise ValueError("coordinate solve produced a non-real basis")
    X = X.real
    H = X.T @ J.T @ Ef @ X + 1j * (X.T @ Ef @ X)
    H = 0.5 * (H + H.conj().T)
    return HermitianFormReport(H, np.linalg.eigvalsh(H), residual)


# -- Frobenius reduction -------------------------------------------------


def _nearest_div(a: int, b: int) -> int:
    """Integer q minimizing |a - q b|.

    divmod floor-rounds toward minus infinity with a remainder of the
    divisor's sign, so the nearest quotient is either q or q + 1 for
    every sign combination.
    """
    if b == 0:
        raise ZeroDivisionError
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def frobenius_basis(E: IntegerSkewForm) -> FrobeniusBasis:
    """Exact integer reduction to the canonical alternating form.

    Returns U unimodular with U^T E U having d_j at (j, j+n), -d_j at
    (j+n, j), zeros elsewhere, and d_1 | d_2 | ... | d_n.  Pivoting is
    on the smallest nonzero entry with lexicographic tie-break.
    """
    size = E.size
    n = size // 2
    if E.det() == 0:
        raise DegenerateFormError("E is degenerate; no canonical basis exists")
    M = [[int(x) for x in row] for row in E.E.tolist()]
    U = [[1 if i == j else 0 for j in range(size)] for i in range(size)]

    def add_col(t: int, s: int, q: int) -> None:
        # basis vector v_t <- v_t - q v_s
        for i in range(size):
            M[i][t] -= q * M[i][s]
        for i in range(size):
            M[t][i] -= q * M[s][i]
        for i in range(size):
            U[i][t] -= q * U[i][s]

    def neg_col(t: int) -> None:
        for i in range(size):
            M[i][t] = -M[i][t]
        for i in range(size):
            M[t][i] = -M[t][i]
        for i in range(size):
            U[i][t] = -U[i][t]

    active = list(range(size))
    pairs: list[tuple[int, int, int]] = []

    def reduce_active() -> None:
        while active:
            best = None
            for i in active:
                for j in active:
                    if i < j and M[i][j] != 0:
                        key = (abs(M[i][j]), i, j)
                        if best is None or key < best:
                            best = key
            if best is None:
                raise DegenerateFormError("form is degenerate on the remaining block")
            _, i, j = best
            e = M[i][j]
            clean = True
            for t in active:
                if t in (i, j):
                    continue
                if M[i][t] != 0:
                    add_col(t, j, _nearest_div(M[i][t], e))
                    if M[i][t] != 0:
                        clean = False
                if M[j][t] != 0:
                    add_col(t, i, _nearest_div(M[j][t], -e))
                    if M[j][t] != 0:
                        clean = False
            if not clean:
                continue
            if M[i][j] < 0:
                neg_col(j)
            pairs.append((i, j, M[i][j]))
            active.remove(i)
            active.remove(j)

    reduce_active()
    while True:
        pairs.sort(key=lambda p: p[2])
        bad = None
        for a in range(len(pairs) - 1):
            if pairs[a + 1][2] % pairs[a][2] != 0:
                bad = a
                break
        if bad is None:
            break
        ia, ja, _ = pairs[bad]
        ib, jb, _ = pairs[bad + 1]
        # recouple on the partner side: v_{ja} <- v_{ja} + v_{jb}; the next
        # clearing pass then runs a Euclid step on the two divisors instead
        # of undoing the merge (the pivot never divides the new entry)
        add_col(ja, jb, -1)
        active.extend([ia, ja, ib, jb])
        del pairs[bad + 1]
        del pairs[bad]
        reduce_active()

    pairs.sort(key=lambda p: p[2])
    order = [p[0] for p in pairs] + [p[1] for p in pairs]
    Ufin = np.array([[U[i][c] for c in order] for i in range(size)], dtype=object)
    divisors = tuple(p[2] for p in pairs)
    # exact verification
    Efin = np.array(
        [[sum(int(Ufin[a, i]) * int(E.E[a, b]) * int(Ufin[b, j]) for a in range(size) for b in range(size))
          for j in range(size)] for i in range(size)], dtype=object
    )
    expected = np.zeros((size, size), dtype=object)
    for k, d in enumerate(divisors):
        expected[k, k + n] = d
        expected[k + n, k] = -d
    if not np.array_equal(Efin, expected):
        raise InternalCheckError("internal check failed: reduction did not reach canonical form")
    det = fraction_det(fraction_matrix(Ufin.tolist()))
    if abs(det) != 1:
        raise InternalCheckError("internal check failed: basis matrix not unimodular")
    Ufin.setflags(write=False)
    return FrobeniusBasis(Ufin, divisors)


def decompose_riemann_form(E: IntegerSkewForm, basis: FrobeniusBasis,
                           cs: ComplexStructure):
    """Split E into rank-2 pieces along the canonical basis pairs.

    S_j equals E on the span of nu_j and nu_{j+n} and vanishes on the
    other basis vectors; the pieces sum to E exactly and each has a
    wedge-square of zero.  Hermitian reports are attached per piece with
    the compatibility residual recorded (a piece is only guaranteed
    J-compatible when the canonical basis is adapted to J, as in the
    split and product cases).
    """
    size = E.size
    n = size // 2
    U = basis.U
    Uinv_frac = fraction_solve(
        fraction_matrix(U.tolist()),
        [[Fraction(1 if i == j else 0) for j in range(size)] for i in range(size)],
    )
    Uinv = np.array([[int(x) for x in row] for row in Uinv_frac], dtype=object)
    pieces = []
    reports = []
    total = np.zeros((size, size), dtype=object)
    for j in range(n):
        C = np.zeros((size, size), dtype=object)
        C[j, j + n] = basis.divisors[j]
        C[j + n, j] = -basis.divisors[j]
        S = Uinv.T @ C @ Uinv
        total = total + S
        form = IntegerSkewForm(S)
        pieces.append(form)
        reports.append(hermitian_from_form(form, cs, require_compatible=False))
    if not np.array_equal(total, E.E):
        raise InternalCheckError("internal check failed: pieces do not sum to E")
    for form in pieces:
        if not wedge_square_is_zero(form):
            raise InternalCheckError("internal check failed: piece is not decomposable")
    return pieces, reports


def wedge_square_is_zero(form: IntegerSkewForm) -> bool:
    """All 4 x 4 sub-Pfaffians vanish, i.e. the form is decomposable."""
    E = form.E
    size = form.size
    for a, b, c, d in itertools.combinations(range(size), 4):
        pf = (int(E[a, b]) * int(E[c, d])
              - int(E[a, c]) * int(E[b, d])
              + int(E[a, d]) * int(E[b, c]))
        if pf != 0:
            return False
    return True


# -- compatibility kernel and bounded search -----------------------------


def _skew_basis_indices(size: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(size) for j in range(i + 1, size)]


def _skew_from_vector(v, size: int) -> np.ndarray:
    out = np.zeros((size, size), dtype=object)
    for (i, j), x in zip(_skew_basis_indices(size), v):
        out[i, j] = int(x)
        out[j, i] = -int(x)
    return out


def _compat_operator_float(J: np.ndarray) -> np.ndarray:
    size = J.shape[0]
    idx = _skew_basis_indices(size)
    D = len(idx)
    A = np.zeros((D, D))
    for col, (i, j) in enumerate(idx):
        K = np.zeros((size, size))
        K[i, j] = 1.0
        K[j, i] = -1.0
        R = J.T @ K @ J - K
        for row, (a, b) in enumerate(idx):
            A[row, col] = R[a, b]
    return A


def _compat_operator_exact(J) -> list[list[Fraction]]:
    size = len(J)
    idx = _skew_basis_indices(size)
    D = len(idx)
    A = [[Fraction(0)] * D for _ in range(D)]
    for col, (i, j) in enumerate(idx):
        K = [[Fraction(0)] * size for _ in range(size)]
        K[i][j] = Fraction(1)
        K[j][i] = Fraction(-1)
        JT_K = [[sum(J[a][r] * K[a][c] for a in range(size)) for c in range(size)]
                for r in range(size)]
        R = [[sum(JT_K[r][a] * J[a][c] for a in range(size)) - K[r][c]
              for c in range(size)] for r in range(size)]
        for row, (a, b) in enumerate(idx):
            A[row][col] = R[a][b]
    return A


def _exact_int_dtype(max_abs: int):
    """int64 if it holds every value up to max_abs, else Python ints (object).

    Callers pass an a-priori bound on every intermediate value, so either
    way the integer arithmetic is exact.
    """
    return np.int64 if max_abs <= np.iinfo(np.int64).max else object


def _bounded_kernel_points(kernel: list[list[int]], bound: int) -> list[tuple[int, ...]]:
    """All nonzero integer vectors of the kernel lattice with sup norm <= bound.

    The basis is LLL-reduced first; coefficient boxes come from the exact
    relation v = pinv(P^T) x, whose row 1-norms bound |v_i| for any lattice
    point x with |x|_inf <= bound.  Candidates are returned sorted by
    sup norm, then lexicographically, so the scan order is canonical.
    """
    P = np.array(kernel, dtype=float)
    red = lll_reduce(P)
    basis = [[int(x) for x in np.rint(row)] for row in red]
    basis = [b for b in basis if any(b)]
    if len(basis) != len(kernel):
        raise InternalCheckError("internal check failed: reduction changed the kernel rank")
    Pf = np.array(basis, dtype=float)
    M = np.linalg.solve(Pf @ Pf.T, Pf)
    boxes = [int(math.floor(bound * float(np.sum(np.abs(M[i]))) * (1 + 1e-9))) + 1
             for i in range(len(basis))]
    total = 1
    for b in boxes:
        total *= 2 * b + 1
        if total > 400_000:
            raise ValueError(
                "the bounded enumeration is too large for this kernel; reduce the bound"
            )
    # every coordinate of V @ basis is at most sum_i box_i max|basis_i| in size
    reach = sum(b * max(abs(t) for t in row) for b, row in zip(boxes, basis))
    B = np.array(basis, dtype=_exact_int_dtype(reach))
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in boxes]
    V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(boxes))
    V = V[V.any(axis=1)]
    X = V.astype(B.dtype) @ B
    X = X[np.max(np.abs(X), axis=1) <= bound].astype(np.int64)
    sup = np.max(np.abs(X), axis=1)
    # lexsort's last key is the primary one: sup norm, then x_0, x_1, ...
    order = np.lexsort(tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (sup,))
    return [tuple(row) for row in X[order].tolist()]


def _first_positive_exact(points: list[tuple[int, ...]], J_frac, size: int):
    """First kernel point, in the given order, whose J^T E is positive definite.

    With den the lcm of the denominators of J, den J^T E is an integer
    matrix with the signs of the leading minors of J^T E (den > 0), and it
    is symmetric for every kernel point (J^T E J = E and J^2 = -1).  A
    positive definite matrix has a positive diagonal, which is linear in
    the skew coordinates; it is checked for all points at once, and only
    the points that pass reach the Sylvester test.
    """
    if not points:
        return None
    den = 1
    for row in J_frac:
        for x in row:
            den = math.lcm(den, x.denominator)
    J_int = [[int(x * den) for x in row] for row in J_frac]
    # diag_r(den J^T E) = sum_a J_int[a][r] E[a][r]; E[i][j] = v_k = -E[j][i]
    idx = _skew_basis_indices(size)
    Dmap = [[0] * len(idx) for _ in range(size)]
    for k, (i, j) in enumerate(idx):
        Dmap[j][k] += J_int[i][j]
        Dmap[i][k] -= J_int[j][i]
    X = np.array(points, dtype=np.int64)
    reach = int(np.max(np.abs(X))) * sum(abs(t) for row in Dmap for t in row)
    dtype = _exact_int_dtype(reach)
    diag = X.astype(dtype) @ np.array(Dmap, dtype=dtype).T
    for p in np.nonzero(np.all(diag > 0, axis=1))[0]:
        vec = points[p]
        E = _skew_from_vector(vec, size).tolist()
        S = [[sum(J_int[a][r] * E[a][c] for a in range(size)) for c in range(size)]
             for r in range(size)]
        if is_positive_definite_exact(S):
            return vec
    return None


@dataclass
class RiemannSearchResult:
    found: bool
    form: IntegerSkewForm | None
    hermitian: HermitianFormReport | None
    kernel_dim: int
    bound: int
    exact: bool
    inconclusive: bool = False
    diagnostics: dict = field(default_factory=dict)


def exact_j_from_rational_period(Qre, Qim) -> list[list[Fraction]]:
    """Exact rational J with Q J = i Q for a rational period matrix."""
    Qre = fraction_matrix(Qre)
    Qim = fraction_matrix(Qim)
    A = [row[:] for row in Qre] + [row[:] for row in Qim]
    B = [[-x for x in row] for row in Qim] + [row[:] for row in Qre]
    return fraction_solve(A, B)


def riemann_form_search(cs: ComplexStructure, bound: int = 6, exact: bool = False,
                        exact_j=None) -> RiemannSearchResult:
    """Bounded search for a Riemann form compatible with cs.

    Solves the linear compatibility system on skew unknowns, produces an
    integer basis of its kernel (exactly when exact_j is given, else by
    nullspace plus integer-relation reduction), then scans every integer
    form in the kernel lattice whose entries are bounded by B, returning
    the first whose hermitian form is positive definite.  Positivity of
    H is equivalent to positive definiteness of the real matrix J^T E,
    which is what both paths test.

    A negative verdict means exactly "no compatible positive form with
    entries up to B"; compatible forms with larger entries may exist.
    """
    size = 2 * cs.n
    if exact:
        if exact_j is None:
            raise ValueError("the exact path needs exact_j (rational J entries)")
        J_frac = fraction_matrix(exact_j)
        Jf = np.array([[float(x) for x in row] for row in J_frac])
        if np.max(np.abs(Jf - cs.J)) > 1e-9:
            raise ValueError("exact_j disagrees with cs.J")
        A = _compat_operator_exact(J_frac)
        denom = 1
        for row in A:
            for x in row:
                denom = math.lcm(denom, x.denominator)
        A_int = [[int(x * denom) for x in row] for row in A]
        kernel = integer_kernel(A_int)
        kernel = [primitive_vector(v) for v in kernel]
        diagnostics = {}
    else:
        A = _compat_operator_float(cs.J)
        s = np.linalg.svd(A, compute_uv=False)
        smax = s[0] if s.size else 0.0
        k = int(np.sum(s < 1e-10 * max(smax, 1.0)))
        diagnostics = {"singular_values": [float(x) for x in s]}
        if k == 0:
            return RiemannSearchResult(False, None, None, 0, bound, exact,
                                       diagnostics=diagnostics)
        D = A.shape[0]
        C = 1e10
        rows = np.hstack([np.eye(D), C * A.T])
        red = lll_reduce(rows)
        found_vecs = []
        for row in red:
            x = np.rint(row[:D]).astype(int)
            if not x.any():
                continue
            resid = float(np.linalg.norm(A @ x)) / (1.0 + float(np.linalg.norm(x)))
            if resid > COMPAT_TOL:
                continue
            found_vecs.append(primitive_vector([int(t) for t in x]))
        found_vecs.sort(key=lambda v: (max(abs(t) for t in v), v))
        kernel = []
        for cand in found_vecs:
            trial = [list(v) for v in kernel] + [list(cand)]
            _, pivots = fraction_rref(fraction_matrix(trial))
            if len(pivots) == len(trial):
                kernel.append(cand)
        if len(kernel) < k:
            diagnostics["note"] = ("integer-relation reduction found fewer vectors "
                                   "than the numerical kernel dimension")
    kdim = len(kernel)
    numerical_dim = kdim if exact else k
    if kdim == 0:
        return RiemannSearchResult(False, None, None, numerical_dim, bound, exact,
                                   diagnostics=diagnostics)
    # enumerate; drop the longest basis vectors if the box is unmanageable
    basis_try = list(kernel)
    truncated = False
    points = []
    while basis_try:
        try:
            points = _bounded_kernel_points(basis_try, bound)
            break
        except ValueError:
            basis_try = sorted(basis_try, key=lambda v: (max(abs(t) for t in v), v))[:-1]
            truncated = True
    if exact:
        hit = _first_positive_exact(points, J_frac, size)
        if hit is not None:
            form = IntegerSkewForm(_skew_from_vector(hit, size))
            report = hermitian_from_form(form, cs)
            return RiemannSearchResult(True, form, report, numerical_dim, bound, exact,
                                       diagnostics=diagnostics)
    else:
        for vec in points:
            form = IntegerSkewForm(_skew_from_vector(vec, size))
            if _compat_residual(form.as_float(), cs.J) > COMPAT_TOL:
                continue
            report = hermitian_from_form(form, cs)
            if report.positivity() == "positive":
                return RiemannSearchResult(True, form, report, numerical_dim, bound,
                                           exact, diagnostics=diagnostics)
    if truncated:
        diagnostics["note"] = ("enumeration used a truncated kernel basis; "
                               "the negative verdict is partial")
    return RiemannSearchResult(False, None, None, numerical_dim, bound, exact,
                               inconclusive=truncated, diagnostics=diagnostics)


# -- Siegel normalization and examples ------------------------------------


@dataclass(frozen=True)
class SiegelResult:
    omega: np.ndarray
    symmetric: bool
    positive: bool


def siegel_normalize(pm: PeriodMatrix, split=None) -> SiegelResult:
    """Normalize the chosen column block to the identity and test the rest.

    split selects the n columns normalized to I; the complementary block
    becomes Omega, flagged for symmetry and positive-definite imaginary
    part.
    """
    Q = np.asarray(pm.Q, dtype=complex)
    n = Q.shape[0]
    if split is None:
        split = tuple(range(Q.shape[1] - n, Q.shape[1]))
    split = tuple(int(c) for c in split)
    if len(split) != n:
        raise ValueError(f"split must pick {n} columns")
    others = [c for c in range(Q.shape[1]) if c not in split]
    B = Q[:, list(split)]
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("selected column block is singular")
    omega = np.linalg.solve(B, Q[:, others])
    scale = max(1.0, float(np.max(np.abs(omega))))
    symmetric = float(np.max(np.abs(omega - omega.T))) <= 1e-8 * scale
    im = 0.5 * (omega.imag + omega.imag.T)
    positive = bool(np.min(np.linalg.eigvalsh(im)) > 0)
    return SiegelResult(omega, symmetric, positive)


def split_torus_example(tau: complex, tau_prime: complex, w: complex) -> PeriodMatrix:
    """Lattice spanned by (1,0), (tau',0), (0,1), (w,tau)."""
    tau, tau_prime, w = complex(tau), complex(tau_prime), complex(w)
    if tau.imag <= 0 or tau_prime.imag <= 0:
        raise ValueError("both moduli must lie in the upper half-plane")
    Q = np.array([[1.0, tau_prime, 0.0, w], [0.0, 0.0, 1.0, tau]], dtype=complex)
    return PeriodMatrix(Q)


@dataclass(frozen=True)
class BlockStructure:
    product_type: bool
    splitting: bool
    theta12: float | None


def detect_block_structure(theta: ThetaMatrix, cs: ComplexStructure,
                           tol: float = 1e-10) -> BlockStructure:
    """Zero-block tests in the given basis (detection is basis-relative)."""
    J = cs.J
    n = cs.n
    splitting = (
        float(np.max(np.abs(J[:2, 2:]), initial=0.0)) <= tol
        and float(np.max(np.abs(J[2:, :2]), initial=0.0)) <= tol
    )

    def block_diagonal(Mat) -> bool:
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                blk = Mat[2 * a:2 * a + 2, 2 * b:2 * b + 2]
                if float(np.max(np.abs(blk))) > tol:
                    return False
        return True

    product = block_diagonal(J) and block_diagonal(theta.entries)
    theta12 = float(theta.entries[0, 1]) if splitting else None
    return BlockStructure(product, splitting, theta12)


# -- the spectral lower bound ---------------------------------------------


@dataclass(frozen=True)
class NCRiemannBound:
    h0_lower_bound: int
    degree: int
    tau: complex
    divisors: tuple[int, ...]
    stable: bool


def ncriemann_h0_bound(theta: ThetaMatrix, cs: ComplexStructure, E: IntegerSkewForm,
                       k: int = 1, M: int = 200) -> NCRiemannBound:
    """Lower bound for dim H0 from the leading canonical piece of k E.

    Requires E to be a Riemann form for cs and the Frobenius basis change
    to leave J split-compatible on the leading pair: after moving nu_1
    and nu_{n+1} to the front, J must be block diagonal with a 2 x 2
    leading block.  The induced elliptic curve then carries a module of
    degree k d_1 whose kernel dimension is the bound.
    """
    if k < 1:
        raise ValueError("the multiplier k must be at least 1")
    report = hermitian_from_form(E, cs)
    if report.positivity() != "positive":
        raise HypothesisError("E is not a Riemann form: H is not positive definite")
    fb = frobenius_basis(E)
    size = E.size
    n = size // 2
    U = fb.U.astype(float)
    perm = [0, n] + [t for t in range(1, n)] + [t for t in range(n + 1, size)]
    B = U[:, perm]
    J3 = np.linalg.solve(B, cs.J @ B)
    if n > 1:
        off = max(float(np.max(np.abs(J3[:2, 2:]))), float(np.max(np.abs(J3[2:, :2]))))
        if off > 1e-8:
            raise HypothesisError(
                f"the canonical basis does not split J (off-block size {off:.3e}); "
                "the reduction to the curve is not available for this input"
            )
    J1 = J3[:2, :2]
    cs1 = ComplexStructure(1, J1, tol=1e-7)
    Q1 = period_from_j(cs1).Q
    ratio = complex(Q1[0, 1] / Q1[0, 0])
    tau = ratio if ratio.imag > 0 else 1.0 / ratio
    degree = k * fb.divisors[0]
    sm = StandardModule1D(q=degree, p=1, tau=tau, M=M)
    rep = standard_module_cohomology(sm)
    return NCRiemannBound(
        h0_lower_bound=int(rep.dims[0]),
        degree=degree,
        tau=tau,
        divisors=tuple(k * d for d in fb.divisors),
        stable=rep.stable,
    )
