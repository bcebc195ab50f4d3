"""Truncated Dolbeault complexes on free modules over noncommutative tori.

The module E = A^r carries operators nabla_j = dbar_j + a_j, one per
antiholomorphic direction, where dbar_j = sum_k W[j,k] delta_k acts
diagonally on lattice modes and a_j acts by left multiplication.  The
complex on (0,q)-forms is compressed to the mode box |m|_inf <= N
(Dirichlet cut: coefficients leaving the box are dropped), and kernel
dimensions are read off singular-value gaps.

Key structural facts the implementation leans on:

* the monomial basis is orthonormal for the trace inner product, so
  the compressed Hilbert space is plain l2 over (modes x fiber), with a
  small Gram matrix on the form indices induced by the metric;
* left multiplication by a monomial U^s moves mode m to m + s with a
  phase given by the product cocycle, so the coupling graph on modes
  decomposes the operator into independent blocks (single modes for
  constant terms, translation chains for single-direction supports);
  blocks are processed densely and in batches, which keeps everything
  deterministic and exact to working precision;
* with scalar constant terms a_j = c_j 1 an uncoupled mode is a Koszul
  complex, whose spectra are written down in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .algebra import (
    ContextError,
    FourierElement,
    MatrixElement,
    ThetaMatrix,
    derivation,
)
from .complexstruct import AntiholFrame, ComplexStructure, antihol_frame, invariant_metric

TWO_PI = 2.0 * math.pi

FLATNESS_TOL = 1e-10
DEFAULT_TOL_REL = 1e-8
DENSE_BLOCK_LIMIT = 1200
_GAP_BAND = 10.0


class NonFlatError(ValueError):
    """Cohomology was requested for a connection with nonzero curvature."""


class HypothesisError(ValueError):
    """A structural precondition (block splitting, adapted frame) fails."""


@dataclass
class FreeConnection:
    """Zero-order parts a_1..a_n of a connection on the free module A^r."""

    rank: int
    terms: list[MatrixElement]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not self.terms:
            raise ValueError("a connection needs one term per antiholomorphic direction")
        theta = self.terms[0].theta
        for t in self.terms:
            if t.r != self.rank:
                raise ValueError("all terms must have the connection rank")
            if not theta.same_context(t.theta):
                raise ContextError("connection terms live over different Theta matrices")

    @property
    def theta(self) -> ThetaMatrix:
        return self.terms[0].theta

    @property
    def n(self) -> int:
        return len(self.terms)

    @classmethod
    def trivial(cls, theta: ThetaMatrix, n: int, rank: int = 1) -> "FreeConnection":
        return cls(rank, [MatrixElement.zeros(theta, rank) for _ in range(n)])

    @classmethod
    def scalar_shift(cls, theta: ThetaMatrix, shifts) -> "FreeConnection":
        """Rank-one connection a_j = c_j * 1."""
        terms = []
        for c in shifts:
            fe = FourierElement.monomial(theta, (0,) * theta.d, c) if c != 0 else FourierElement.zero(theta)
            terms.append(MatrixElement(theta, [[fe]]))
        return cls(1, terms)


@dataclass(frozen=True)
class TruncationBox:
    """Sup-norm cutoff on lattice modes: |m|_inf <= N."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")


def default_box(n: int) -> TruncationBox:
    return TruncationBox(8 if n <= 2 else 4)


@dataclass(frozen=True)
class SpectralReport:
    """Per-degree kernel dimensions with gap and stability diagnostics."""

    dims: tuple[int, ...]
    index: int
    sigma_kept: float
    sigma_cut: float
    stable: bool
    conclusive: bool
    N: int
    tol_rel: float
    kernel_modes_q0: tuple | None = None

    def alternating_sum(self) -> int:
        return int(sum((-1) ** q * d for q, d in enumerate(self.dims)))


@dataclass(frozen=True)
class IndexResult:
    index: int
    stable: bool
    conclusive: bool
    sigma_kept: float
    sigma_cut: float
    N: int


@dataclass
class CurvatureResult:
    entries: list[list[MatrixElement]]
    is_flat: bool
    max_abs: float


# -- curvature ---------------------------------------------------------


def dbar_apply(frame: AntiholFrame, j: int, x: MatrixElement) -> MatrixElement:
    """dbar_j applied entrywise: sum_k W[j,k] delta_k."""
    W = frame.W

    def fn(fe: FourierElement) -> FourierElement:
        acc = FourierElement.zero(fe.theta)
        for k in range(W.shape[1]):
            c = W[j, k]
            if c != 0:
                acc = acc + derivation(k + 1, fe).scale(c)
        return acc

    return x.map_entries(fn)


def flatness_curvature(conn: FreeConnection, frame: AntiholFrame) -> CurvatureResult:
    """Curvature F_jk = dbar_j(a_k) - dbar_k(a_j) + [a_j, a_k], exactly."""
    n = conn.n
    if frame.n != n:
        raise ValueError("frame and connection disagree on the complex dimension")
    F = [[None] * n for _ in range(n)]
    max_abs = 0.0
    for j in range(n):
        for k in range(n):
            aj, ak = conn.terms[j], conn.terms[k]
            fjk = dbar_apply(frame, j, ak) - dbar_apply(frame, k, aj) + (aj @ ak) - (ak @ aj)
            F[j][k] = fjk
            max_abs = max(max_abs, fjk.max_abs())
    return CurvatureResult(F, max_abs < FLATNESS_TOL, max_abs)


# -- form combinatorics and metric -------------------------------------


def _form_indices(n: int) -> list[list[tuple[int, ...]]]:
    return [list(itertools.combinations(range(n), q)) for q in range(n + 1)]


def _wedge_signs(n: int, forms) -> list[list[np.ndarray]]:
    """S[j][q][B, A] = sign of dzbar_j wedge dzbar_A = sign * dzbar_B."""
    S = [[np.zeros((len(forms[q + 1]), len(forms[q]))) for q in range(n)] for _ in range(n)]
    for q in range(n):
        pos_of = {B: b for b, B in enumerate(forms[q + 1])}
        for a, A in enumerate(forms[q]):
            for j in range(n):
                if j in A:
                    continue
                ins = sum(1 for x in A if x < j)
                B = tuple(sorted(A + (j,)))
                S[j][q][pos_of[B], a] = (-1.0) ** ins
    return S


def _form_grams(frame: AntiholFrame, G: np.ndarray, forms):
    """Gram matrices M_q on the wedge bases and their Cholesky factors."""
    n = frame.n
    W = frame.W
    P = np.vstack([W.conj(), W])
    Phi = np.linalg.inv(P.T)
    dzbar = Phi[n:, :]
    Ginv = np.linalg.inv(G)
    # inner(alpha, beta) = alpha Ginv conj(beta)^T; M1[b, a] = inner(dzbar_a, dzbar_b)
    M1 = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            M1[b, a] = dzbar[a] @ Ginv @ dzbar[b].conj()
    M1 = 0.5 * (M1 + M1.conj().T)
    Ms, Ls, Linvs = [], [], []
    for q in range(n + 1):
        dim = len(forms[q])
        Mq = np.empty((dim, dim), dtype=complex)
        for a, A in enumerate(forms[q]):
            for b, B in enumerate(forms[q]):
                Mq[b, a] = 1.0 if q == 0 else np.linalg.det(M1[np.ix_(B, A)])
        Mq = 0.5 * (Mq + Mq.conj().T)
        L = np.linalg.cholesky(Mq)
        Ms.append(Mq)
        Ls.append(L)
        Linvs.append(np.linalg.inv(L))
    return Ms, Ls, Linvs


def _tilde_signs(S, Ls, Linvs, n):
    """Sign matrices conjugated into the orthonormal form bases."""
    out = []
    for j in range(n):
        row = []
        for q in range(n):
            row.append(Ls[q + 1].conj().T @ S[j][q] @ Linvs[q].conj().T)
        out.append(row)
    return out


# -- connection data ----------------------------------------------------


def _connection_data(conn: FreeConnection):
    """Split terms into constant fiber matrices and mode couplings."""
    n, r, d = conn.n, conn.rank, conn.theta.d
    zero = (0,) * d
    const = [np.zeros((r, r), dtype=complex) for _ in range(n)]
    couplings = []  # (j, i2, i1, step tuple, coeff)
    for j in range(n):
        for i2 in range(r):
            for i1 in range(r):
                for m, c in conn.terms[j].entries[i2][i1].coeffs.items():
                    if m == zero:
                        const[j][i2, i1] += c
                    else:
                        couplings.append((j, i2, i1, m, complex(c)))
    steps = sorted({cp[3] for cp in couplings})
    return const, couplings, steps


# -- spectral collectors -------------------------------------------------


class _Collector:
    """Streams eigenvalues (or singular values), keeping only what the
    threshold decision needs: the global max, values below a provisional
    cutoff, and the smallest value above it."""

    def __init__(self, prov: float):
        self.prov = prov
        self.vals: list[float] = []
        self.mults: list[int] = []
        self.vmax = 0.0
        self.above = math.inf
        self.incomplete = False

    def add(self, values: np.ndarray, mult: int = 1) -> None:
        if values.size == 0:
            return
        v = np.abs(values.reshape(-1))
        self.vmax = max(self.vmax, float(v.max()))
        small = v[v <= self.prov]
        if small.size:
            self.vals.extend(float(x) for x in small)
            self.mults.extend([mult] * small.size)
        if small.size < v.size:
            self.above = min(self.above, float(np.min(v, where=v > self.prov, initial=math.inf)))

    def finalize(self, tol_rel: float):
        thresh = tol_rel * self.vmax
        kernel = 0
        cut = 0.0
        kept = self.above
        for v, m in zip(self.vals, self.mults):
            if v < thresh:
                kernel += m
                cut = max(cut, v)
            else:
                kept = min(kept, v)
        if math.isinf(kept):
            conclusive = True
        else:
            conclusive = (cut <= thresh / _GAP_BAND) and (kept >= thresh * _GAP_BAND)
        if self.incomplete:
            conclusive = False
        return kernel, cut, kept, conclusive, thresh


@dataclass
class _BoxRun:
    dims: tuple[int, ...] | None
    ker_even: int | None
    sigma_kept: float
    sigma_cut: float
    conclusive: bool
    kernel_modes_q0: tuple | None


# -- mode bookkeeping ----------------------------------------------------


def mode_count(d: int, N: int) -> int:
    return (2 * N + 1) ** d


def _radix(d: int, N: int) -> np.ndarray:
    side = 2 * N + 1
    return side ** np.arange(d, dtype=np.int64)


def _decode_modes(flat: np.ndarray, d: int, N: int) -> np.ndarray:
    side = 2 * N + 1
    out = np.empty((flat.size, d), dtype=np.int64)
    rem = flat.astype(np.int64)
    for k in range(d):
        out[:, k] = rem % side - N
        rem //= side
    return out


def _phases(theta: ThetaMatrix, step, modes: np.ndarray) -> np.ndarray:
    """exp(2 pi i sigma(step, m)) for each row m of modes."""
    ls = theta.sigma_step_vector(step)
    sig = modes @ ls
    return np.exp(2j * math.pi * np.mod(sig, 1.0))


# -- the engine ----------------------------------------------------------


class _Engine:
    def __init__(self, cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                 N: int, tol_rel: float, want_dims: bool, want_index: bool):
        n = frame.n
        if conn.n != n:
            raise ValueError("connection and frame disagree on the complex dimension")
        theta = conn.theta
        if theta.d != 2 * n:
            raise ValueError("Theta size and frame dimension disagree")
        self.cs, self.frame, self.conn = cs, frame, conn
        self.n, self.d, self.r, self.N = n, 2 * n, conn.rank, N
        self.theta = theta
        self.tol_rel = tol_rel
        self.want_dims, self.want_index = want_dims, want_index

        self.forms = _form_indices(n)
        self.fdims = [len(f) for f in self.forms]
        signs = _wedge_signs(n, self.forms)
        metric = invariant_metric(cs)
        _, Ls, Linvs = _form_grams(frame, metric.G, self.forms)
        self.Stil = _tilde_signs(signs, Ls, Linvs, n)
        self.L1 = Ls[1]

        self.const, self.couplings, self.steps = _connection_data(conn)
        # const[j] == c_j I_r for every j (the trivial connection included):
        # then v~(m) = (w(m) + c) L1-bar = v0 + sum_k m_k U[k] on each mode,
        # kept as real and imaginary parts side by side (2n real columns)
        shift = np.array([cj[0, 0] for cj in self.const])
        self.scalar_const = all(
            np.array_equal(cj, sj * np.eye(self.r)) for cj, sj in zip(self.const, shift)
        )
        U = (2j * math.pi) * (frame.W.T @ self.L1.conj())
        v0 = shift @ self.L1.conj()
        self.U = np.hstack([U.real, U.imag])
        self.v0 = np.concatenate([v0.real, v0.imag])

        # operator norm bounds used for provisional cutoffs
        W = frame.W
        wmax = TWO_PI * N * np.sum(np.abs(W), axis=1)
        coupn = np.zeros(n)
        for j in range(n):
            coupn[j] = np.linalg.norm(self.const[j], 2) + sum(
                abs(c) for (jj, _, _, _, c) in self.couplings if jj == j
            )
        self.opbound = np.zeros(n + 1)
        for q in range(n):
            self.opbound[q] = sum(
                np.linalg.norm(self.Stil[j][q], 2) * (wmax[j] + coupn[j]) for j in range(n)
            )
        lam_bound = [
            (self.opbound[q] + (self.opbound[q - 1] if q > 0 else 0.0)) ** 2
            for q in range(n + 1)
        ]
        self.lap = [
            _Collector(16.0 * tol_rel * max(lam_bound[q], 1e-300)) for q in range(n + 1)
        ] if want_dims else None
        d_bound = sum(
            self.opbound[q] + (self.opbound[q - 1] if q > 0 else 0.0)
            for q in range(0, n + 1, 2)
        )
        self.dsv = _Collector(16.0 * math.sqrt(tol_rel) * max(d_bound, 1e-300)) if want_index else None
        self.evens = list(range(0, n + 1, 2))
        self.odds = list(range(1, n + 1, 2))

        self.q0_candidates: list[tuple[float, tuple | None, int]] = []
        self.q0_attributable = True

    # -- helpers ----------------------------------------------------

    def _frequencies(self, modes: np.ndarray) -> np.ndarray:
        return (2j * math.pi) * (modes @ self.frame.W.T)

    def _record_q0(self, values: np.ndarray, modes: np.ndarray | None, mult: int):
        if self.lap is None:
            return
        prov = self.lap[0].prov
        small = values <= prov
        if values.ndim == 1:
            idx = np.nonzero(small)[0]
            for i in idx[:256]:
                mode = tuple(int(x) for x in modes[i]) if modes is not None else None
                if mode is None:
                    self.q0_attributable = False
                self.q0_candidates.append((float(values[i]), mode, mult))
        else:
            # one candidate per (mode, eigenvalue) so the final threshold can
            # keep or drop each kernel vector individually
            rows, cols = np.nonzero(small)
            for i, jj in list(zip(rows, cols))[:256]:
                mode = tuple(int(x) for x in modes[i]) if modes is not None else None
                if mode is None:
                    self.q0_attributable = False
                self.q0_candidates.append((float(values[i, jj]), mode, mult))

    # -- closed-form and batched single-mode paths --------------------

    def _run_koszul_modes(self, flat_idx: np.ndarray | None):
        """Closed-form spectra for uncoupled modes with scalar constant parts.

        With a_j = c_j 1 the complex on one mode is the Koszul complex of
        the covector v = w + c: wedge multiplication by v.  Every degree of
        its Laplacian has the single eigenvalue |v~|^2, v~ = v L1-bar, with
        full multiplicity.  The whole box goes slab by slab without mode
        coordinates; a subset of the box is decoded mode by mode.
        """
        d, N = self.d, self.N
        if flat_idx is None:
            for start, lam in self._box_koszul_eigenvalues():
                self._add_koszul(lam, lambda idx: _decode_modes(start + idx, d, N))
            return
        chunk = 2_000_000
        for start in range(0, flat_idx.size, chunk):
            modes = _decode_modes(flat_idx[start:start + chunk], d, N)
            vt = modes @ self.U + self.v0
            lam = np.einsum("ij,ij->i", vt, vt)
            self._add_koszul(lam, lambda idx: modes[idx])

    def _box_koszul_eigenvalues(self):
        """Yield (first flat index, |v~|^2) over the box, one slab at a time.

        The k fastest axes (side^k <= 2M modes) form the inner block, whose
        part of v~ is built once by broadcasting in flat order (axis 0
        fastest); a slab is a run of values of the slower axes, at most 2M
        modes, and only those slower coordinates are decoded.
        """
        d, N = self.d, self.N
        side = 2 * N + 1
        cap = 2_000_000
        k = d
        while k > 0 and side ** k > cap:
            k -= 1
        coords = np.arange(-N, N + 1)
        inner = []
        for p in range(self.U.shape[1]):
            col = np.zeros(1)
            for a in range(k):
                col = np.add.outer(coords * self.U[a, p], col).reshape(-1)
            inner.append(col)
        size = inner[0].size
        rows = cap // size
        outer = side ** (d - k)
        for o0 in range(0, outer, rows):
            o1 = min(o0 + rows, outer)
            vout = _decode_modes(np.arange(o0, o1), d - k, N) @ self.U[k:] + self.v0
            lam = np.empty((o1 - o0, size))
            t = np.empty_like(lam)
            for p, col in enumerate(inner):
                part = lam if p == 0 else t
                np.add(vout[:, p, None], col, out=part)
                np.square(part, out=part)
                if p:
                    lam += t
            yield o0 * size, lam.reshape(-1)

    def _add_koszul(self, lam: np.ndarray, modes_at):
        """Feed closed-form eigenvalues; modes_at(idx) decodes q0 candidates."""
        n, r = self.n, self.r
        if self.lap is not None:
            for q in range(n + 1):
                self.lap[q].add(lam, mult=r * self.fdims[q])
            idx = np.nonzero(lam <= self.lap[0].prov)[0][:256]
            self._record_q0(lam[idx], modes_at(idx), mult=r)
        if self.dsv is not None:
            self.dsv.add(np.sqrt(lam), mult=r * 2 ** (n - 1))

    def _run_single_modes(self, flat_idx: np.ndarray | None):
        """Spectra of uncoupled modes, all of the box or the flat indices given.

        Scalar constant fiber parts (the trivial connection included) take
        the closed-form Koszul path; other constant fiber matrices go through
        batched dense blocks, one mode per block.
        """
        if self.scalar_const:
            self._run_koszul_modes(flat_idx)
            return
        n, r, d, N = self.n, self.r, self.d, self.N
        K = mode_count(d, N)
        total = K if flat_idx is None else flat_idx.size
        big = max(self.fdims) * r
        chunk = max(1, int(4_000_000 / max(big * big, 1)))
        start = 0
        eye_r = np.eye(r, dtype=complex)
        while start < total:
            stop = min(start + chunk, total)
            fl = np.arange(start, stop, dtype=np.int64) if flat_idx is None else flat_idx[start:stop]
            modes = _decode_modes(fl, d, N)
            w = self._frequencies(modes)
            g = fl.size
            T = [
                w[:, j, None, None] * eye_r + self.const[j][None, :, :]
                for j in range(n)
            ]
            self._spectra_from_blocks(T, g, 1, modes)
            start = stop

    # -- component paths ------------------------------------------------

    def _spectra_from_blocks(self, T: list[np.ndarray], g: int, c: int,
                             modes_for_q0: np.ndarray | None):
        """Collect spectra from batched per-block direction operators T_j.

        T[j] has shape (g, c*r, c*r).  The degree operators A_q are
        assembled with the wedge sign matrices; batches that form a complex
        take the Hodge-rank path, the others the Laplacians and D*D.
        """
        n = self.n
        cr = c * self.r
        At = []
        for q in range(n):
            C1, C0 = self.fdims[q + 1], self.fdims[q]
            acc = np.zeros((g, C1, cr, C0, cr), dtype=complex)
            for b in range(C1):
                for a in range(C0):
                    for j in range(n):
                        s = self.Stil[j][q][b, a]
                        if s != 0:
                            acc[:, b, :, a, :] += s * T[j]
            At.append(acc.reshape(g, C1 * cr, C0 * cr))
        if self._forms_complex(At):
            self._hodge_rank_spectra(At, cr, modes_for_q0)
        else:
            self._laplacian_spectra(At, g, cr, modes_for_q0)

    def _forms_complex(self, At: list[np.ndarray]) -> bool:
        """Whether the batch is close enough to a complex for the Hodge-rank path.

        eps = max over the batch and q of ||A_{q+1} A_q||_F bounds the defect
        in operator norm.  With B = [A_q; A_{q-1}^*] we have Delta_q = B^* B
        and B B^* = diag(A_q A_q^*, A_{q-1}^* A_{q-1}) + [[0, E], [E^*, 0]],
        E = A_q A_{q-1}, so by Weyl each sorted eigenvalue of Delta_q lies
        within eps of the Hodge-rank union.  D*D differs from the direct sum
        of the even Delta_q by the blocks A_{q+1} A_q and their adjoints, at
        most 2 eps more.  Every collector this batch feeds sees an eigenvalue
        of at least s, the smallest over q of max |A_q|^2 (an entry bounds
        ||A_q||), so its threshold is at least tol_rel * s, in eigenvalue
        units for the singular-value collector too.  The gate asks
        3 eps <= tol_rel * s / _GAP_BAND**2, so no value moves by more than
        thresh / _GAP_BAND**2: a value at or below thresh / _GAP_BAND (a
        singular value at or below its threshold / _GAP_BAND) stays below the
        threshold, one at or above _GAP_BAND times it stays above, and the
        kernel counts of a conclusive run cannot change.
        """
        s = min(float(np.max(np.abs(A))) for A in At) ** 2
        gate = self.tol_rel * s / (3.0 * _GAP_BAND ** 2)
        eps = 0.0
        for q in range(len(At) - 1):
            # ||E x|| <= ||E|| ||x||: a batch whose defect on the all-ones
            # vector already exceeds the gate fails without forming E
            x = np.ones(At[q].shape[-1])
            Ex = np.matmul(At[q + 1], np.matmul(At[q], x)[..., None])
            if float(np.max(np.linalg.norm(Ex, axis=(1, 2)))) > gate * math.sqrt(x.size):
                return False
            E = np.matmul(At[q + 1], At[q])
            eps = max(eps, float(np.max(np.linalg.norm(E, axis=(1, 2)))))
        return eps <= gate

    def _hodge_rank_spectra(self, At: list[np.ndarray], cr: int,
                            modes_for_q0: np.ndarray | None):
        """Laplacian and D spectra from per-degree Gram eigenvalues.

        For a complex, Delta_q = A_q^* A_q + A_{q-1} A_{q-1}^* has orthogonal
        summands, so its spectrum is the union of the nonzero squared
        singular values of A_q and A_{q-1}, plus zeros; and D*D is the direct
        sum of the even Delta_q.  Each Gram is taken on the smaller side.
        With binomial form dimensions, m_q + m_{q-1} >= dim C_q, so the union
        never falls short; any surplus, m_q + m_{q-1} - dim C_q values (n >= 3),
        is exact zeros for a complex and the smallest values are dropped.
        """
        n = self.n
        mu = []
        for A in At:
            AH = A.conj().swapaxes(-1, -2)
            gram = np.matmul(A, AH) if A.shape[-2] < A.shape[-1] else np.matmul(AH, A)
            mu.append(np.linalg.eigvalsh(gram))
        for q in range(n + 1):
            vals = np.concatenate([mu[k] for k in (q - 1, q) if 0 <= k < n], axis=-1)
            surplus = vals.shape[-1] - self.fdims[q] * cr
            if surplus > 0:
                vals = np.sort(vals, axis=-1)[:, surplus:]
            if self.lap is not None:
                self.lap[q].add(vals)
                if q == 0:
                    self._record_q0(vals, modes_for_q0, mult=1)
            if self.dsv is not None and q % 2 == 0:
                self.dsv.add(np.sqrt(np.clip(vals, 0.0, None)))

    def _laplacian_spectra(self, At: list[np.ndarray], g: int, cr: int,
                           modes_for_q0: np.ndarray | None):
        """Per-degree Laplacian and D*D spectra; valid without A_{q+1} A_q = 0."""
        n = self.n
        if self.lap is not None:
            for q in range(n + 1):
                Lap = None
                if q < n:
                    A = At[q]
                    Lap = np.matmul(A.conj().swapaxes(-1, -2), A)
                if q > 0:
                    A = At[q - 1]
                    low = np.matmul(A, A.conj().swapaxes(-1, -2))
                    Lap = low if Lap is None else Lap + low
                vals = np.linalg.eigvalsh(Lap)
                self.lap[q].add(vals)
                if q == 0:
                    self._record_q0(vals, modes_for_q0, mult=1)
        if self.dsv is not None:
            ecols = [self.fdims[q] * cr for q in self.evens]
            orows = [self.fdims[q] * cr for q in self.odds]
            eoff = np.concatenate([[0], np.cumsum(ecols)])
            ooff = np.concatenate([[0], np.cumsum(orows)])
            D = np.zeros((g, int(ooff[-1]), int(eoff[-1])), dtype=complex)
            for qi, q in enumerate(self.evens):
                c0, c1 = int(eoff[qi]), int(eoff[qi + 1])
                if q < n:
                    oi = self.odds.index(q + 1)
                    D[:, int(ooff[oi]):int(ooff[oi + 1]), c0:c1] += At[q]
                if q > 0:
                    oi = self.odds.index(q - 1)
                    D[:, int(ooff[oi]):int(ooff[oi + 1]), c0:c1] += At[q - 1].conj().swapaxes(-1, -2)
            ev = np.linalg.eigvalsh(np.matmul(D.conj().swapaxes(-1, -2), D))
            self.dsv.add(np.sqrt(np.clip(ev, 0.0, None)))

    def _group_blocks(self, modes_all: np.ndarray, members: np.ndarray,
                      patterns: np.ndarray):
        """Batched T_j blocks for same-size uniform-pattern components."""
        n, r = self.n, self.r
        G, c = members.shape
        cr = c * r
        big = max(self.fdims) * cr
        chunk = max(1, int(8_000_000 / max(big * big, 1)))
        ar = np.arange(c)
        start = 0
        while start < G:
            stop = min(start + chunk, G)
            sub = members[start:stop]
            g = sub.shape[0]
            mvec = modes_all[sub]  # (g, c, d)
            w = self._frequencies(mvec.reshape(-1, self.d)).reshape(g, c, n)
            T = [np.zeros((g, cr, cr), dtype=complex) for _ in range(n)]
            for j in range(n):
                for i in range(r):
                    T[j][:, ar * r + i, ar * r + i] = w[:, :, j]
                if np.max(np.abs(self.const[j])) > 0:
                    for i2 in range(r):
                        for i1 in range(r):
                            val = self.const[j][i2, i1]
                            if val != 0:
                                T[j][:, ar * r + i2, ar * r + i1] += val
            for ci, (j, i2, i1, step, coeff) in enumerate(self.couplings):
                tgt = patterns[ci]
                valid = tgt >= 0
                if not valid.any():
                    continue
                ph = _phases(self.theta, step, mvec.reshape(-1, self.d)).reshape(g, c)
                T[j][:, tgt[valid] * r + i2, ar[valid] * r + i1] += coeff * ph[:, valid]
            self._spectra_from_blocks(T, g, c, None)
            start = stop

    def _sparse_component(self, modes_all: np.ndarray, member: np.ndarray,
                          patterns: np.ndarray):
        """Iterative spectra for one component too large for dense blocks."""
        n, r = self.n, self.r
        c = member.size
        cr = c * r
        mvec = modes_all[member]
        w = self._frequencies(mvec)
        ar = np.arange(c)
        T = []
        for j in range(n):
            data, ri, ci = [], [], []
            for i in range(r):
                ri.extend(ar * r + i)
                ci.extend(ar * r + i)
                data.extend(w[:, j])
            if np.max(np.abs(self.const[j])) > 0:
                for i2 in range(r):
                    for i1 in range(r):
                        val = self.const[j][i2, i1]
                        if val != 0:
                            ri.extend(ar * r + i2)
                            ci.extend(ar * r + i1)
                            data.extend([val] * c)
            for ci_idx, (jj, i2, i1, step, coeff) in enumerate(self.couplings):
                if jj != j:
                    continue
                tgt = patterns[ci_idx]
                valid = np.nonzero(tgt >= 0)[0]
                if valid.size == 0:
                    continue
                ph = _phases(self.theta, step, mvec[valid])
                ri.extend(tgt[valid] * r + i2)
                ci.extend(valid * r + i1)
                data.extend(coeff * ph)
            T.append(sp.csr_matrix((data, (ri, ci)), shape=(cr, cr)))
        At = []
        for q in range(n):
            acc = None
            for j in range(n):
                term = sp.kron(sp.csr_matrix(self.Stil[j][q]), T[j], format="csr")
                acc = term if acc is None else acc + term
            At.append(acc)
        rng = np.random.default_rng(20240711)
        if self.lap is not None:
            for q in range(n + 1):
                Lap = None
                if q < n:
                    Lap = (At[q].conj().T @ At[q]).tocsr()
                if q > 0:
                    low = (At[q - 1] @ At[q - 1].conj().T).tocsr()
                    Lap = low if Lap is None else Lap + low
                vals, vmax, complete = _iterative_small_eigs(
                    Lap, 2 * r * self.fdims[q] + 6, rng
                )
                self.lap[q].vmax = max(self.lap[q].vmax, vmax)
                self.lap[q].add(np.asarray(vals))
                # if every computed value sits below the provisional cutoff,
                # more kernel candidates may exist beyond the solver's block
                if not complete or (len(vals) < Lap.shape[0]
                                    and max(vals) <= self.lap[q].prov):
                    self.lap[q].incomplete = True
                if q == 0 and any(v <= self.lap[0].prov for v in vals):
                    self.q0_attributable = False
                    self.q0_candidates.append((min(vals), None, 1))
        if self.dsv is not None:
            ecols = [self.fdims[q] * cr for q in self.evens]
            orows = [self.fdims[q] * cr for q in self.odds]
            eoff = np.concatenate([[0], np.cumsum(ecols)]).astype(int)
            ooff = np.concatenate([[0], np.cumsum(orows)]).astype(int)
            blocks = [[None] * len(self.evens) for _ in range(len(self.odds))]
            for qi, q in enumerate(self.evens):
                if q < n:
                    blocks[self.odds.index(q + 1)][qi] = At[q]
                if q > 0:
                    oi = self.odds.index(q - 1)
                    prev = blocks[oi][qi]
                    adj = At[q - 1].conj().T
                    blocks[oi][qi] = adj if prev is None else prev + adj
            D = sp.bmat(blocks, format="csr")
            DhD = (D.conj().T @ D).tocsr()
            vals, vmax, complete = _iterative_small_eigs(
                DhD, 2 * r * 2 ** (n - 1) + 6, rng
            )
            self.dsv.vmax = max(self.dsv.vmax, math.sqrt(vmax))
            sv = np.sqrt(np.clip(np.asarray(vals), 0.0, None))
            self.dsv.add(sv)
            if not complete or (len(vals) < DhD.shape[0]
                                and float(sv.max()) <= self.dsv.prov):
                self.dsv.incomplete = True

    # -- main --------------------------------------------------------

    def run(self) -> _BoxRun:
        n, d, N, r = self.n, self.d, self.N, self.r
        if not self.steps:
            self._run_single_modes(None)
        else:
            K = mode_count(d, N)
            if K * d * 8 > 2e9:
                raise ValueError("mode box too large for a coupled connection")
            flat_all = np.arange(K, dtype=np.int64)
            modes_all = _decode_modes(flat_all, d, N)
            radix = _radix(d, N)
            rows, cols = [], []
            for s in self.steps:
                svec = np.array(s, dtype=np.int64)
                shifted = modes_all + svec
                ok = np.all(np.abs(shifted) <= N, axis=1)
                src = flat_all[ok]
                dst = (shifted[ok] + N) @ radix
                rows.append(src)
                cols.append(dst)
            rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
            cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
            adj = sp.csr_matrix(
                (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(K, K)
            )
            ncomp, labels = connected_components(adj, directed=False)
            sizes = np.bincount(labels)
            single_mask = sizes[labels] == 1
            if single_mask.any():
                self._run_single_modes(flat_all[single_mask])

            multi = np.nonzero(~single_mask)[0]
            if multi.size:
                order = np.lexsort((flat_all[multi], labels[multi]))
                grouped = multi[order]
                glabels = labels[grouped]
                starts = np.r_[0, np.nonzero(np.diff(glabels))[0] + 1]
                csize = sizes[glabels]
                pos_of = np.empty(K, dtype=np.int64)
                pos_of[grouped] = np.arange(grouped.size) - np.repeat(starts, csize[starts])
                for c in np.unique(csize):
                    c = int(c)
                    # components of one size, in label order, as rows
                    members = grouped[csize == c].reshape(-1, c)
                    patterns = self._patterns(members, modes_all, pos_of, radix)
                    uniform = all(
                        np.all(p == p[0:1, :], axis=None) for p in patterns
                    )
                    dim = c * r * max(self.fdims)
                    if dim > DENSE_BLOCK_LIMIT:
                        for gi in range(members.shape[0]):
                            self._sparse_component(
                                modes_all, members[gi], [p[gi] for p in patterns]
                            )
                    elif uniform:
                        self._group_blocks(modes_all, members,
                                           np.array([p[0] for p in patterns]))
                    else:
                        for gi in range(members.shape[0]):
                            self._run_component_dense(
                                modes_all, members[gi], [p[gi] for p in patterns]
                            )
        return self._finalize()

    def _patterns(self, members: np.ndarray, modes_all: np.ndarray,
                  pos_of: np.ndarray, radix: np.ndarray):
        """Within-component target positions for each coupling, per component."""
        N = self.N
        G, c = members.shape
        out = []
        for (j, i2, i1, step, coeff) in self.couplings:
            svec = np.array(step, dtype=np.int64)
            shifted = modes_all[members.reshape(-1)] + svec
            ok = np.all(np.abs(shifted) <= N, axis=1)
            tgt = np.full(G * c, -1, dtype=np.int64)
            dst = (shifted[ok] + N) @ radix
            tgt[ok] = pos_of[dst]
            out.append(tgt.reshape(G, c))
        return out

    def _run_component_dense(self, modes_all, member, patterns):
        n, r = self.n, self.r
        c = member.size
        mvec = modes_all[member]
        w = self._frequencies(mvec)
        ar = np.arange(c)
        eye_r = np.eye(r, dtype=complex)
        T = []
        for j in range(n):
            Tj = np.zeros((1, c * r, c * r), dtype=complex)
            for i in range(r):
                Tj[0, ar * r + i, ar * r + i] = w[:, j]
            if np.max(np.abs(self.const[j])) > 0:
                Tj[0] += np.kron(np.eye(c), self.const[j])
            T.append(Tj)
        for ci, (j, i2, i1, step, coeff) in enumerate(self.couplings):
            tgt = patterns[ci]
            valid = np.nonzero(tgt >= 0)[0]
            if valid.size == 0:
                continue
            ph = _phases(self.theta, step, mvec[valid])
            T[j][0, tgt[valid] * r + i2, valid * r + i1] += coeff * ph
        self._spectra_from_blocks(T, 1, c, None)

    def _finalize(self) -> _BoxRun:
        dims = None
        sigma_kept = math.inf
        sigma_cut = 0.0
        conclusive = True
        kernel_modes = None
        if self.lap is not None:
            dlist = []
            for q in range(self.n + 1):
                kernel, cut, kept, ok, thresh = self.lap[q].finalize(self.tol_rel)
                dlist.append(kernel)
                sigma_cut = max(sigma_cut, cut)
                sigma_kept = min(sigma_kept, kept)
                conclusive = conclusive and ok
            dims = tuple(dlist)
            thresh0 = self.tol_rel * self.lap[0].vmax
            if self.q0_attributable:
                agg: dict[tuple, int] = {}
                for val, mode, mult in self.q0_candidates:
                    if val < thresh0 and mode is not None:
                        agg[mode] = agg.get(mode, 0) + mult
                # _record_q0 keeps at most 256 candidates per chunk; a list
                # that lost some would misattribute the kernel
                if sum(agg.values()) == dims[0]:
                    kernel_modes = tuple(sorted(agg.items()))
        ker_even = None
        if self.dsv is not None:
            kernel, cut, kept, ok, _ = self.dsv.finalize(math.sqrt(self.tol_rel))
            ker_even = kernel
            sigma_cut = max(sigma_cut, cut)
            sigma_kept = min(sigma_kept, kept)
            conclusive = conclusive and ok
        return _BoxRun(dims, ker_even, sigma_kept, sigma_cut, conclusive, kernel_modes)


def _iterative_small_eigs(Lap: sp.csr_matrix, k: int, rng) -> tuple[list[float], float, bool]:
    """Smallest eigenvalues of a sparse Hermitian PSD matrix, plus its largest."""
    from scipy.sparse.linalg import eigsh, lobpcg

    dim = Lap.shape[0]
    if dim < max(64, 5 * k):
        vals = np.linalg.eigvalsh(Lap.toarray())
        return [float(v) for v in vals], float(vals[-1]), True
    v0 = np.ones(dim) / math.sqrt(dim)
    vmax = float(eigsh(Lap, k=1, which="LA", v0=v0, tol=1e-7,
                       return_eigenvectors=False)[0])
    k = min(k, dim - 2)
    diag = Lap.diagonal().real
    diag = np.where(diag > 1e-12 * max(vmax, 1.0), diag, 1.0)
    M = sp.diags(1.0 / diag).tocsr()
    X = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    tol = 1e-10 * max(vmax, 1.0)
    vals, vecs = lobpcg(Lap, X, M=M, tol=tol, maxiter=400, largest=False)
    # lobpcg returns its last iterate when maxiter runs out; only residuals
    # within the requested tolerance make the values count as computed
    resid = np.linalg.norm(Lap @ vecs - vecs * vals, axis=0)
    complete = bool(np.all(resid <= tol))
    return sorted(float(v) for v in vals), vmax, complete


def _box_run(cs, frame, conn, N, tol_rel, want_dims, want_index) -> _BoxRun:
    return _Engine(cs, frame, conn, N, tol_rel, want_dims, want_index).run()


# -- public operations ----------------------------------------------------


def cohomology_dims(cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                    box: TruncationBox, tol_rel: float = DEFAULT_TOL_REL) -> SpectralReport:
    """Kernel dimensions of the per-degree Laplacians of the compressed complex.

    Requires a flat connection; runs the box at N and N + 2 and reports
    stable only when the two agree and both have clear gaps.
    """
    curv = flatness_curvature(conn, frame)
    if not curv.is_flat:
        raise NonFlatError(
            f"connection has curvature of size {curv.max_abs:.3e}; "
            "cohomology needs a flat connection"
        )
    runA = _box_run(cs, frame, conn, box.N, tol_rel, True, True)
    runB = _box_run(cs, frame, conn, box.N + 2, tol_rel, True, False)
    stable = runA.conclusive and runB.conclusive and runA.dims == runB.dims
    return SpectralReport(
        dims=runA.dims,
        index=0,  # free module: see index()
        sigma_kept=runA.sigma_kept,
        sigma_cut=runA.sigma_cut,
        stable=stable,
        conclusive=runA.conclusive,
        N=box.N,
        tol_rel=tol_rel,
        kernel_modes_q0=runA.kernel_modes_q0,
    )


def index(cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
          box: TruncationBox, tol_rel: float = DEFAULT_TOL_REL) -> IndexResult:
    """Kernel-count difference of the compressed even-to-odd operator.

    Defined for flat and non-flat connections alike.  The even and odd
    compressions of a free module have equal dimension, so D is square and
    its kernel and cokernel have equal dimension: the index is 0 by
    construction, matching the zero top component of the free K-class.
    The D spectrum still decides whether the kernel gap is resolved, which
    sets conclusive, stable and sigma_*.
    """
    runA = _box_run(cs, frame, conn, box.N, tol_rel, False, True)
    runB = _box_run(cs, frame, conn, box.N + 2, tol_rel, False, True)
    stable = runA.conclusive and runB.conclusive
    return IndexResult(
        index=0,
        stable=stable,
        conclusive=runA.conclusive,
        sigma_kept=runA.sigma_kept,
        sigma_cut=runA.sigma_cut,
        N=box.N,
    )


def kunneth_dims(dims1, dims2) -> tuple[int, ...]:
    """Graded convolution: out[q] = sum_k dims1[k] * dims2[q - k]."""
    d1 = [int(x) for x in dims1]
    d2 = [int(x) for x in dims2]
    out = [0] * (len(d1) + len(d2) - 1)
    for i, a in enumerate(d1):
        for j, b in enumerate(d2):
            out[i + j] += a * b
    return tuple(out)


def _embed_fourier(fe: FourierElement, theta_big: ThetaMatrix) -> FourierElement:
    pad = theta_big.d - fe.theta.d
    return FourierElement(
        theta_big, {m + (0,) * pad: c for m, c in fe.coeffs.items()}
    )


def pushforward_connection(theta_small: ThetaMatrix, conn_small: FreeConnection,
                           theta_big: ThetaMatrix, cs_big: ComplexStructure,
                           frame_big: AntiholFrame) -> FreeConnection:
    """Induced connection on the module pushed through u_j -> U_j.

    The big complex structure must split off its leading 2x2 block and
    the frame must be block-adapted: rows past the first have no
    components along the two leading directions.  The first term of the
    result is the embedded small term (rescaled to the big frame's
    normalization of the leading antiholomorphic direction); all other
    terms vanish, which makes the result flat.
    """
    if theta_small.d != 2 or conn_small.n != 1:
        raise ValueError("the small side must be an elliptic curve connection")
    nb = frame_big.n
    J = cs_big.J
    if np.max(np.abs(J[:2, 2:])) > 1e-10 or np.max(np.abs(J[2:, :2])) > 1e-10:
        raise HypothesisError("big J does not split off its leading 2x2 block")
    if abs(theta_big.entries[0, 1] - theta_small.entries[0, 1]) > 1e-12:
        raise HypothesisError("Theta_12 of the big torus must equal the curve parameter")
    W = frame_big.W
    if nb > 1 and np.max(np.abs(W[1:, :2])) > 1e-10:
        raise HypothesisError("frame is not block-adapted: later rows touch the leading block")
    if np.max(np.abs(W[0, 2:])) > 1e-10:
        raise HypothesisError("frame is not block-adapted: first row leaves the leading block")
    cs_small = ComplexStructure(1, J[:2, :2], tol=1e-9)
    w_small = antihol_frame(cs_small).W[0]
    lead = int(np.argmax(np.abs(w_small)))
    scale = W[0, lead] / w_small[lead]
    if np.max(np.abs(W[0, :2] - scale * w_small)) > 1e-9:
        raise HypothesisError("leading frame row is not proportional to the curve frame")
    r = conn_small.rank
    term1 = MatrixElement(theta_big, [
        [_embed_fourier(fe, theta_big).scale(scale) for fe in row]
        for row in conn_small.terms[0].entries
    ])
    terms = [term1] + [MatrixElement.zeros(theta_big, r) for _ in range(nb - 1)]
    return FreeConnection(r, terms)


# -- raw operator export ---------------------------------------------------


def assemble_operator(cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                      box: TruncationBox, degree: int) -> sp.csr_matrix:
    """Sparse matrix of the degree -> degree+1 operator in the natural basis.

    Basis order: form index slowest, then mode (box lexicographic), then
    fiber.  No metric normalization is applied.
    """
    n, r, d, N = frame.n, conn.rank, 2 * frame.n, box.N
    if not 0 <= degree < n:
        raise ValueError(f"degree must be in 0..{n - 1}")
    forms = _form_indices(n)
    signs = _wedge_signs(n, forms)
    const, couplings, _ = _connection_data(conn)
    K = mode_count(d, N)
    flat_all = np.arange(K, dtype=np.int64)
    modes = _decode_modes(flat_all, d, N)
    radix = _radix(d, N)
    w = (2j * math.pi) * (modes @ frame.W.T)
    T = []
    for j in range(n):
        ri, ci, data = [], [], []
        for i in range(r):
            ri.append(flat_all * r + i)
            ci.append(flat_all * r + i)
            data.append(w[:, j])
        for i2 in range(r):
            for i1 in range(r):
                val = const[j][i2, i1]
                if val != 0:
                    ri.append(flat_all * r + i2)
                    ci.append(flat_all * r + i1)
                    data.append(np.full(K, val, dtype=complex))
        for (jj, i2, i1, step, coeff) in couplings:
            if jj != j:
                continue
            svec = np.array(step, dtype=np.int64)
            shifted = modes + svec
            ok = np.all(np.abs(shifted) <= N, axis=1)
            src = flat_all[ok]
            dst = (shifted[ok] + N) @ radix
            ph = _phases(conn.theta, step, modes[ok])
            ri.append(dst * r + i2)
            ci.append(src * r + i1)
            data.append(coeff * ph)
        T.append(sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
            shape=(K * r, K * r),
        ))
    out = None
    for j in range(n):
        term = sp.kron(sp.csr_matrix(signs[j][degree]), T[j], format="csr")
        out = term if out is None else out + term
    return out


def export_operator_coo(cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                        box: TruncationBox, degree: int) -> list[tuple[int, int, float, float]]:
    """Coordinate triples (row, col, re, im) of the compressed operator."""
    A = assemble_operator(cs, frame, conn, box, degree).tocoo()
    order = np.lexsort((A.col, A.row))
    return [
        (int(A.row[i]), int(A.col[i]), float(A.data[i].real), float(A.data[i].imag))
        for i in order
    ]
