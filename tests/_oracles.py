"""Independent oracles used across the test suite.

Each oracle recomputes a quantity by a route that shares no code with the
implementation under test: word reordering for the twisted product,
finite-dimensional clock-and-shift representations at rational angles,
and stable Hermite-function evaluation for the oscillator modules.  The
Riemann-form references keep the plain loop form of the bounded search
(itertools enumeration, Fraction products, a Sylvester test on every
candidate); they share the kernel and the exact determinant with the
implementation, not its vectorized scan.  The full-box Dolbeault operator
(assemble_operator) shares the connection table, wedge signs, mode decoding
and phases with the engine, not its assembly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def word_multiply(theta: np.ndarray, a_coeffs: dict, b_coeffs: dict) -> dict:
    """Product of twisted Fourier series by explicit letter-by-letter reordering.

    Monomials are expanded into words of generator letters; adjacent
    swaps U_j^s U_k^t -> U_k^t U_j^s (j > k) each contribute the phase
    exp(2 pi i Theta_jk s t).  Independent of any cocycle formula.
    """
    d = theta.shape[0]

    def word_of(m):
        letters = []
        for j, e in enumerate(m):
            letters.extend([(j, 1 if e > 0 else -1)] * abs(e))
        return letters

    def mono_mul(m, nvec):
        word = word_of(m) + word_of(nvec)
        turns = 0.0
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                (j, s), (k, t) = word[i], word[i + 1]
                if j > k:
                    turns += theta[j, k] * s * t
                    word[i], word[i + 1] = word[i + 1], word[i]
                    changed = True
        exps = [0] * d
        for j, s in word:
            exps[j] += s
        return tuple(exps), cmath.exp(2j * math.pi * (turns % 1.0))

    out: dict = {}
    for m, cm in a_coeffs.items():
        for nvec, dn in b_coeffs.items():
            key, phase = mono_mul(m, nvec)
            out[key] = out.get(key, 0.0) + cm * dn * phase
    return {k: v for k, v in out.items() if abs(v) > 1e-14}


class ClockShift:
    """q x q representation of the rank-2 torus at theta = p / q."""

    def __init__(self, p: int, q: int):
        if math.gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")
        self.p, self.q = p, q
        omega = cmath.exp(2j * math.pi * p / q)
        self.C = np.diag([omega ** k for k in range(q)])
        S = np.zeros((q, q), dtype=complex)
        for k in range(q):
            S[(k + 1) % q, k] = 1.0
        self.S = S

    def _power(self, base: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return np.eye(self.q, dtype=complex)
        mat = base if e > 0 else np.conj(base.T)
        out = np.eye(self.q, dtype=complex)
        for _ in range(abs(e)):
            out = out @ mat
        return out

    def rep_monomial(self, m) -> np.ndarray:
        return self._power(self.C, m[0]) @ self._power(self.S, m[1])

    def rep(self, coeffs: dict) -> np.ndarray:
        out = np.zeros((self.q, self.q), dtype=complex)
        for m, c in coeffs.items():
            out += c * self.rep_monomial(m)
        return out

    def normalized_trace(self, mat: np.ndarray) -> complex:
        return complex(np.trace(mat) / self.q)


def random_fourier(theta, rng: np.random.Generator, n_terms: int, box: int):
    """Random element with at most n_terms modes drawn from |m|_inf <= box."""
    from nctorus.algebra import FourierElement

    d = theta.d
    terms = {}
    for _ in range(n_terms):
        m = tuple(int(x) for x in rng.integers(-box, box + 1, size=d))
        terms[m] = complex(rng.normal(), rng.normal())
    return FourierElement(theta, terms)


def hermite_functions(grid: np.ndarray, kmax: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions h_0..h_{kmax-1} on a grid.

    Uses the stable normalized recursion, safe for large k.
    """
    out = np.zeros((kmax, grid.size))
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * grid ** 2)
    out[0] = h0
    if kmax > 1:
        out[1] = math.sqrt(2.0) * grid * h0
    for k in range(1, kmax - 1):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * grid * out[k]
                      - math.sqrt(k / (k + 1)) * out[k - 1])
    return out


def kernel_points_reference(kernel, bound: int) -> list[tuple[int, ...]]:
    """Bounded kernel-lattice points by itertools over the coefficient boxes.

    The loop form of nctorus.riemann._bounded_kernel_points: the same LLL
    basis, boxes and size guard, then one Python sum per coefficient vector
    and a sort by (sup norm, lexicographic).
    """
    import itertools

    from nctorus.lattice import lll_reduce

    red = lll_reduce(np.array(kernel, dtype=object))
    basis = [[int(x) for x in row] for row in red]
    basis = [b for b in basis if any(b)]
    Pf = np.array(basis, dtype=float)
    M = np.linalg.solve(Pf @ Pf.T, Pf)
    boxes = [int(math.floor(bound * float(np.sum(np.abs(M[i]))) * (1 + 1e-9))) + 1
             for i in range(len(basis))]
    if math.prod(2 * b + 1 for b in boxes) > 400_000:
        raise ValueError("the bounded enumeration is too large for this kernel")
    D = len(basis[0])
    points = []
    for v in itertools.product(*[range(-b, b + 1) for b in boxes]):
        if not any(v):
            continue
        x = tuple(sum(v[i] * basis[i][j] for i in range(len(basis))) for j in range(D))
        if max(abs(t) for t in x) <= bound:
            points.append(x)
    points.sort(key=lambda x: (max(abs(t) for t in x), x))
    return points


def exact_kernel_reference(exact_j) -> list[list[int]]:
    """Primitive integer basis of the compatibility kernel of a rational J."""
    from nctorus.lattice import fraction_matrix, integer_kernel, primitive_vector
    from nctorus.riemann import _compat_operator

    A = _compat_operator(fraction_matrix(exact_j))
    denom = 1
    for row in A:
        for x in row:
            denom = math.lcm(denom, x.denominator)
    A_int = [[int(x * denom) for x in row] for row in A]
    return [primitive_vector(v) for v in integer_kernel(A_int)]


def exact_search_reference(exact_j, bound: int):
    """The exact Riemann-form search with Fraction arithmetic throughout.

    Returns (found, E as a list of rows or None, inconclusive).  Kernel,
    truncation rule and scan order follow nctorus.riemann; each candidate
    J^T E is multiplied out over Q and sent to the Sylvester test, with no
    prefilter.
    """
    from fractions import Fraction

    from nctorus.lattice import fraction_matrix, is_positive_definite_exact
    from nctorus.riemann import _skew_from_vector

    J = fraction_matrix(exact_j)
    size = len(J)
    basis, truncated, points = exact_kernel_reference(exact_j), False, []
    while basis:
        try:
            points = kernel_points_reference(basis, bound)
            break
        except ValueError:
            basis = sorted(basis, key=lambda v: (max(abs(t) for t in v), v))[:-1]
            truncated = True
    for vec in points:
        E = _skew_from_vector(vec, size)
        S = [[sum(J[a][r] * Fraction(int(E[a, c])) for a in range(size)) for c in range(size)]
             for r in range(size)]
        if is_positive_definite_exact(S):
            return True, E.astype(int).tolist(), False
    return False, None, truncated


def box_graph_reference(steps, U: np.ndarray, v0: np.ndarray, N: int):
    """(targets, |v~|, labels) of the box |m|_inf <= N from every mode's coordinates.

    The decode-based build of the coupling graph: the box's (K, d) int64
    coordinates (flat index sum_k (m_k + N) side^k), one in-box test per
    step, targets[k, m] the flat index of m + steps[k] or -1, |v~(m)| =
    ||v0 + m U|| as one product, and the component labels that
    scipy.sparse.csgraph.connected_components gives the steps' edges.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    d = U.shape[0]
    side = 2 * N + 1
    K = side ** d
    flat = np.arange(K, dtype=np.int64)
    modes = np.stack([flat // side ** k % side - N for k in range(d)], axis=1)
    radix = side ** np.arange(d, dtype=np.int64)
    targets = np.full((len(steps), K), -1, dtype=np.int64)
    for k, s in enumerate(np.array(steps, dtype=np.int64).reshape(len(steps), d)):
        ok = np.all(np.abs(modes + s) <= N, axis=1)
        targets[k, ok] = flat[ok] + s @ radix
    ok = targets >= 0
    src = np.broadcast_to(flat, ok.shape)[ok]
    adj = sp.csr_matrix((np.ones(src.size, dtype=np.int8), (src, targets[ok])), shape=(K, K))
    labels = connected_components(adj, directed=False)[1]
    return targets, np.linalg.norm(modes @ U + v0, axis=1), labels


def assemble_operator(cs, frame, conn, box, degree: int):
    """Sparse CSR matrix of the degree -> degree+1 operator of the whole box, natural basis.

    The engine's dense oracle.  Basis order: form index slowest, then mode
    (box lexicographic), then fiber.  No metric normalization is applied.
    It reads the connection table, wedge signs, mode decoding and phases of
    nctorus.dolbeault, and assembles with code of its own: one CSR T_j per
    direction from every step and fiber entry, summed with the wedge signs
    by Kronecker products.
    """
    import scipy.sparse as sp

    from nctorus import dolbeault as dlb

    n, r, d, N = frame.n, conn.rank, 2 * frame.n, box.N
    if not 0 <= degree < n:
        raise ValueError(f"degree must be in 0..{n - 1}")
    forms = dlb._form_indices(n)
    signs = dlb._wedge_signs(n, forms)
    steps, coef = dlb._connection_data(conn)
    K = dlb.mode_count(d, N)
    flat_all = np.arange(K, dtype=np.int64)
    modes = dlb._decode_modes(flat_all, d, N)
    radix = dlb._radix(d, N)
    w = (2j * math.pi) * (modes @ frame.W.T)
    T = []
    for j in range(n):
        ri = [flat_all * r + i for i in range(r)]
        ci = list(ri)
        data = [w[:, j]] * r
        for step, fiber in zip(steps, coef[:, j]):
            if not fiber.any():
                continue
            shifted = modes + np.array(step, dtype=np.int64)
            ok = np.all(np.abs(shifted) <= N, axis=1)
            src = flat_all[ok]
            dst = (shifted[ok] + N) @ radix
            ph = dlb._phases(conn.theta, step, modes[ok])
            for i2, i1 in zip(*np.nonzero(fiber)):
                ri.append(dst * r + i2)
                ci.append(src * r + i1)
                data.append(fiber[i2, i1] * ph)
        T.append(sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
            shape=(K * r, K * r),
        ))
    out = None
    for j in range(n):
        term = sp.kron(sp.csr_matrix(signs[j][degree]), T[j], format="csr")
        out = term if out is None else out + term
    return out


def export_operator_coo(cs, frame, conn, box, degree: int) -> list[tuple[int, int, float, float]]:
    """Coordinate triples (row, col, re, im) of assemble_operator, sorted by row, then column."""
    A = assemble_operator(cs, frame, conn, box, degree).tocoo()
    order = np.lexsort((A.col, A.row))
    return [
        (int(A.row[i]), int(A.col[i]), float(A.data[i].real), float(A.data[i].imag))
        for i in order
    ]
