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
  one method writes the entries of the degree operators of every block,
  for dense batches and sparse components alike, and blocks of one size
  and coupling pattern are processed densely and in batches, which keeps
  everything deterministic and exact to working precision;
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
    """Cholesky factors L_q of the Gram matrices M_q on the wedge bases, and their inverses."""
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
    Ls, Linvs = [], []
    for q in range(n + 1):
        dim = len(forms[q])
        Mq = np.empty((dim, dim), dtype=complex)
        for a, A in enumerate(forms[q]):
            for b, B in enumerate(forms[q]):
                Mq[b, a] = 1.0 if q == 0 else np.linalg.det(M1[np.ix_(B, A)])
        Mq = 0.5 * (Mq + Mq.conj().T)
        L = np.linalg.cholesky(Mq)
        Ls.append(L)
        Linvs.append(np.linalg.inv(L))
    return Ls, Linvs


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
        """Take nonnegative values: eigensolves fold their rounding negatives first."""
        v = values.reshape(-1)
        self.vmax = max(self.vmax, float(v.max()))
        below = v <= self.prov
        small = v[below]
        if small.size:
            self.vals.extend(float(x) for x in small)
            self.mults.extend([mult] * small.size)
        if small.size < v.size:
            above = np.logical_not(below, out=below)
            self.above = min(self.above, float(np.min(v, where=above, initial=math.inf)))

    def add_iterative(self, values: np.ndarray, vmax: float, complete: bool, dim: int) -> None:
        """Take the smallest values of a dim x dim matrix from _iterative_small_eigs."""
        self.vmax = max(self.vmax, vmax)
        self.add(values)
        # if every computed value sits below the provisional cutoff,
        # more kernel candidates may exist beyond the solver's block
        if not complete or (values.size < dim and float(values.max()) <= self.prov):
            self.incomplete = True

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
        conclusive = (cut <= thresh / _GAP_BAND) and (kept >= thresh * _GAP_BAND)
        if self.incomplete:
            conclusive = False
        return kernel, cut, kept, conclusive


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


def _smallest_below(values: np.ndarray, prov: float) -> np.ndarray:
    """Indices of the 256 smallest of the 1-D values at or below prov (all, if fewer)."""
    idx = np.nonzero(values <= prov)[0]
    if idx.size > 256:
        idx = idx[np.argpartition(values[idx], 255)[:256]]
    return idx


def _pattern_groups(patterns: np.ndarray):
    """Row sets of equal coupling pattern, in order of first appearance.

    Takes the first remaining row, gathers every row equal to it and
    repeats, so a size class with one pattern costs one comparison.
    """
    rest = np.arange(patterns.shape[0])
    while rest.size:
        same = np.all(patterns[rest] == patterns[rest[0]], axis=(1, 2))
        yield rest[same]
        rest = rest[~same]


def _dense_bmat(blocks) -> np.ndarray:
    """np.block over batches (g, rows, cols); None is a zero block, the diagonal is square."""
    g = blocks[0][0].shape[0]
    size = [row[i].shape[-1] for i, row in enumerate(blocks)]
    return np.block([[np.zeros((g, size[i], size[k]), dtype=complex) if B is None else B
                      for k, B in enumerate(row)] for i, row in enumerate(blocks)])


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
        self.frame = frame
        self.n, self.d, self.r, self.N = n, 2 * n, conn.rank, N
        self.theta = theta
        self.tol_rel = tol_rel

        self.forms = _form_indices(n)
        self.fdims = [len(f) for f in self.forms]
        signs = _wedge_signs(n, self.forms)
        metric = invariant_metric(cs)
        Ls, Linvs = _form_grams(frame, metric.G, self.forms)
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
        # ||D|| is at most the sum of the ||A_q||
        d_bound = max(self.opbound.sum(), 1e-300)
        self.dsv = _Collector(16.0 * math.sqrt(tol_rel) * d_bound) if want_index else None
        self.odds = list(range(1, n + 1, 2))

        self.q0_candidates: list[tuple[float, tuple | None, int]] = []
        self.q0_attributable = True

    # -- helpers ----------------------------------------------------

    def _frequencies(self, modes: np.ndarray) -> np.ndarray:
        return (2j * math.pi) * (modes @ self.frame.W.T)

    def _record_q0(self, values: np.ndarray, modes: np.ndarray | None, mult: int):
        """Keep the smallest degree-0 eigenvalues as kernel candidates.

        values holds one eigenvalue (1-D) or one row of them (2-D) per row
        of modes; modes is None for blocks of several modes, whose
        candidates cannot be attributed.  One candidate per eigenvalue, so
        the final threshold keeps or drops each kernel vector individually.
        Callers feed it only when the Laplacian spectra are wanted.
        """
        width = math.prod(values.shape[1:])
        flat = values.reshape(-1)
        for i in _smallest_below(flat, self.lap[0].prov):
            mode = tuple(int(x) for x in modes[i // width]) if modes is not None else None
            if mode is None:
                self.q0_attributable = False
            self.q0_candidates.append((float(flat[i]), mode, mult))

    # -- closed-form path ------------------------------------------------

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
            idx = _smallest_below(lam, self.lap[0].prov)
            self._record_q0(lam[idx], modes_at(idx), mult=r)
        if self.dsv is not None:
            self.dsv.add(np.sqrt(lam), mult=r * 2 ** (n - 1))

    # -- block paths ------------------------------------------------------

    def _direction_terms(self, mvec: np.ndarray, pattern: np.ndarray):
        """Entries of the direction operators T_j = dbar_j + a_j on blocks.

        mvec (g, c, d) holds the coordinates of g blocks of c modes each;
        pattern[k] is the position within the block that coupling k sends
        each member to (-1: out of the box), one row shared by the g blocks.
        T_j indexes (position, fiber) with the fiber fastest.  Yields
        (j, rows, cols, values) with values of shape (g, len(rows)): for each
        T_j the diagonal w and then the constant fiber entries, then the
        couplings in self.couplings order.  No two entries of one yield
        share a position, so a yield can be scattered with one fancy-indexed
        add; two yields may (w and a constant diagonal entry).
        """
        r = self.r
        g, c, _ = mvec.shape
        modes = mvec.reshape(-1, self.d)
        w = self._frequencies(modes).reshape(g, c, self.n)
        ar = np.arange(c)
        for j in range(self.n):
            for i in range(r):
                yield j, ar * r + i, ar * r + i, w[:, :, j]
            for i2, i1 in zip(*np.nonzero(self.const[j])):
                yield j, ar * r + i2, ar * r + i1, np.broadcast_to(self.const[j][i2, i1], (g, c))
        for (j, i2, i1, step, coeff), tgt in zip(self.couplings, pattern):
            src = np.nonzero(tgt >= 0)[0]
            if src.size:
                ph = _phases(self.theta, step, modes).reshape(g, c)
                yield j, tgt[src] * r + i2, src * r + i1, coeff * ph[:, src]

    def _degree_terms(self, mvec: np.ndarray, pattern: np.ndarray):
        """Entries of the degree operators A_q = sum_j S~[j][q] (x) T_j on blocks.

        Arguments as in _direction_terms.  A_q maps C_q to C_{q+1} and
        indexes (form, position, fiber) with the fiber fastest, so form b of
        a block of cr = c*r rows starts at row b*cr.  Yields (q, rows, cols,
        values) with values of shape (g, len(rows)): each direction term
        once for every nonzero wedge weight S~[j][q][b, a], in the order of
        _direction_terms.
        """
        cr = mvec.shape[1] * self.r
        for j, rows, cols, values in self._direction_terms(mvec, pattern):
            for q in range(self.n):
                S = self.Stil[j][q]
                for b, a in zip(*np.nonzero(S)):
                    yield q, b * cr + rows, a * cr + cols, S[b, a] * values

    def _run_blocks(self, members: np.ndarray, pattern: np.ndarray):
        """Dense spectra of blocks that share one coupling pattern, in batches.

        members (G, c) holds the flat mode indices of G blocks; pattern is
        as in _direction_terms.  Batches that form a complex take the
        Hodge-rank path, the others the Laplacians.  Blocks of one mode keep
        their coordinates for kernel_modes_q0.
        """
        G, c = members.shape
        cr = c * self.r
        big = max(self.fdims) * cr
        chunk = max(1, int(8_000_000 / max(big * big, 1)))
        for start in range(0, G, chunk):
            sub = members[start:start + chunk]
            g = sub.shape[0]
            mvec = _decode_modes(sub.reshape(-1), self.d, self.N).reshape(g, c, self.d)
            At = [np.zeros((g, self.fdims[q + 1] * cr, self.fdims[q] * cr), dtype=complex)
                  for q in range(self.n)]
            for q, rows, cols, values in self._degree_terms(mvec, pattern):
                At[q][:, rows, cols] += values
            modes_for_q0 = mvec[:, 0] if c == 1 else None
            if self._forms_complex(At):
                self._hodge_rank_spectra(At, cr, modes_for_q0)
            else:
                self._laplacian_spectra(At, modes_for_q0)

    def _forms_complex(self, At: list[np.ndarray]) -> bool:
        """Whether the batch is close enough to a complex for the Hodge-rank path.

        eps = max over the batch and q of ||A_{q+1} A_q||_F bounds the defect
        in operator norm.  With B = [A_q; A_{q-1}^*] we have Delta_q = B^* B
        and B B^* = diag(A_q A_q^*, A_{q-1}^* A_{q-1}) + [[0, E], [E^*, 0]],
        E = A_q A_{q-1}, so by Weyl each sorted eigenvalue of Delta_q lies
        within eps of the Hodge-rank union.  DD^* on the odd forms differs
        from the direct sum of the odd Delta_q by the blocks A_{q+1} A_q and
        their adjoints, at most 2 eps more.  Every collector this batch
        feeds sees an eigenvalue of at least s, the smallest over q of
        max |A_q|^2 (an entry bounds ||A_q||), so its threshold is at least
        tol_rel * s, in eigenvalue units for the singular-value collector
        too.  The gate asks 3 eps <= tol_rel * s / _GAP_BAND**2, so no value
        moves by more than thresh / _GAP_BAND**2: a value at or below
        thresh / _GAP_BAND (a singular value at or below its threshold /
        _GAP_BAND) stays below the threshold, one at or above _GAP_BAND
        times it stays above, and the kernel counts of a conclusive run
        cannot change.
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
        """Laplacian and DD^* spectra from per-degree Gram eigenvalues.

        For a complex, Delta_q = A_q^* A_q + A_{q-1} A_{q-1}^* has orthogonal
        summands, so its spectrum is the union of the nonzero squared
        singular values of A_q and A_{q-1}, plus zeros; and DD^* is the direct
        sum of the odd Delta_q.  Each Gram is taken on the smaller side.
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
                self.lap[q].add(np.abs(vals))
                if q == 0:
                    self._record_q0(vals, modes_for_q0, mult=1)
            if self.dsv is not None and q % 2 == 1:
                self.dsv.add(np.sqrt(np.clip(vals, 0.0, None)))

    def _laplacians(self, At: list, adjoint, bmat) -> dict:
        """The matrices whose spectra the collectors need, keyed q or "odd".

        At holds dense batches or one component's sparse matrices, and
        adjoint and bmat act on that kind.  Key q is Delta_q = A_q^* A_q +
        A_{q-1} A_{q-1}^*, every degree when the dims are wanted.  The index
        reads DD^* on the odd forms, which has the spectrum of D^*D since
        D = dbar + dbar^* (even forms -> odd forms) is square: the odd
        Delta_q on the diagonal, the defect blocks A_{q+1} A_q (C_q -> C_{q+2})
        below it and their adjoints above.  At n <= 2 the only odd degree is 1
        and DD^* is Delta_1, key 1; above, it is key "odd".
        """
        n = self.n
        laps = {}
        for q in range(n + 1) if self.lap is not None else self.odds:
            terms = ([adjoint(At[q]) @ At[q]] if q < n else []) + \
                    ([At[q - 1] @ adjoint(At[q - 1])] if q > 0 else [])
            laps[q] = terms[0] if len(terms) == 1 else terms[0] + terms[1]
        if self.dsv is None or len(self.odds) == 1:
            return laps
        size = len(self.odds)
        blocks = [[None] * size for _ in range(size)]
        for i, q in enumerate(self.odds):
            blocks[i][i] = laps[q]
            if q + 2 <= n:
                E = At[q + 1] @ At[q]
                blocks[i + 1][i], blocks[i][i + 1] = E, adjoint(E)
        mats = laps if self.lap is not None else {}
        mats["odd"] = bmat(blocks)
        return mats

    def _laplacian_spectra(self, At: list[np.ndarray], modes_for_q0: np.ndarray | None):
        """Dense spectra of the Delta_q and of DD^* on the odd forms; valid without dbar^2 = 0."""
        mats = self._laplacians(At, lambda A: A.conj().swapaxes(-1, -2), _dense_bmat)
        spectra = {key: np.linalg.eigvalsh(M) for key, M in mats.items()}
        if self.lap is not None:
            for q in range(self.n + 1):
                self.lap[q].add(np.abs(spectra[q]))
            self._record_q0(spectra[0], modes_for_q0, mult=1)
        if self.dsv is not None:
            ev = spectra["odd" if len(self.odds) > 1 else 1]
            self.dsv.add(np.sqrt(np.clip(ev, 0.0, None)))

    def _sparse_component(self, member: np.ndarray, pattern: np.ndarray):
        """Iterative spectra for one component too large for dense blocks."""
        n, r = self.n, self.r
        cr = member.size * r
        mvec = _decode_modes(member, self.d, self.N)[None]
        parts = [([], [], []) for _ in range(n)]
        for q, rows, cols, values in self._degree_terms(mvec, pattern):
            parts[q][0].append(values[0])
            parts[q][1].append(rows)
            parts[q][2].append(cols)
        At = [sp.csr_matrix((np.concatenate(v), (np.concatenate(ri), np.concatenate(ci))),
                            shape=(self.fdims[q + 1] * cr, self.fdims[q] * cr))
              for q, (v, ri, ci) in enumerate(parts)]
        mats = self._laplacians(At, lambda A: A.conj().T, sp.bmat)
        rng = np.random.default_rng(20240711)
        # 2 r values per form index, plus 6
        spectra = {key: _iterative_small_eigs(M, 2 * M.shape[0] // member.size + 6, rng)
                   for key, M in mats.items()}
        if self.lap is not None:
            for q in range(n + 1):
                vals, vmax, complete = spectra[q]
                self.lap[q].add_iterative(np.abs(vals), vmax, complete, mats[q].shape[0])
            vals = spectra[0][0]
            if vals[0] <= self.lap[0].prov:
                self.q0_attributable = False
                self.q0_candidates.append((float(vals[0]), None, 1))
        if self.dsv is not None:
            key = "odd" if len(self.odds) > 1 else 1
            vals, vmax, complete = spectra[key]
            self.dsv.add_iterative(np.sqrt(np.clip(vals, 0.0, None)), math.sqrt(vmax),
                                   complete, mats[key].shape[0])

    # -- main --------------------------------------------------------

    def run(self) -> _BoxRun:
        d, N = self.d, self.N
        K = mode_count(d, N)
        if not self.steps:
            if self.scalar_const:
                self._run_koszul_modes(None)
            else:
                self._run_blocks(np.arange(K, dtype=np.int64)[:, None],
                                 np.empty((0, 1), dtype=np.int64))
            return self._finalize()
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
            rows.append(flat_all[ok])
            cols.append((shifted[ok] + N) @ radix)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        adj = sp.csr_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(K, K)
        )
        _, labels = connected_components(adj, directed=False)
        sizes = np.bincount(labels)
        # modes sorted by component, then flat index; csize[i] is the size of
        # the component of grouped[i], pos_of its position there
        grouped = np.lexsort((flat_all, labels))
        glabels = labels[grouped]
        starts = np.r_[0, np.nonzero(np.diff(glabels))[0] + 1]
        csize = sizes[glabels]
        pos_of = np.empty(K, dtype=np.int64)
        pos_of[grouped] = np.arange(K) - np.repeat(starts, csize[starts])
        for c in np.unique(csize):
            c = int(c)
            # components of one size, in label order, as rows
            members = grouped[csize == c].reshape(-1, c)
            if c == 1 and self.scalar_const:
                self._run_koszul_modes(members[:, 0])
                continue
            patterns = self._patterns(members, modes_all, pos_of, radix)
            for group in _pattern_groups(patterns):
                pattern = patterns[group[0]]
                if c * self.r * max(self.fdims) > DENSE_BLOCK_LIMIT:
                    for member in members[group]:
                        self._sparse_component(member, pattern)
                else:
                    self._run_blocks(members[group], pattern)
        return self._finalize()

    def _patterns(self, members: np.ndarray, modes_all: np.ndarray,
                  pos_of: np.ndarray, radix: np.ndarray) -> np.ndarray:
        """Within-component target positions, shape (components, couplings, c).

        Entry [g, k, i] is the position that coupling k sends member i of
        component g to, -1 when the target leaves the box.
        """
        N = self.N
        G, c = members.shape
        src = modes_all[members.reshape(-1)]
        out = np.full((G, len(self.couplings), c), -1, dtype=np.int64)
        for k, (_, _, _, step, _) in enumerate(self.couplings):
            shifted = src + np.array(step, dtype=np.int64)
            ok = np.all(np.abs(shifted) <= N, axis=1)
            tgt = np.full(G * c, -1, dtype=np.int64)
            tgt[ok] = pos_of[(shifted[ok] + N) @ radix]
            out[:, k] = tgt.reshape(G, c)
        return out

    def _finalize(self) -> _BoxRun:
        dims = None
        sigma_kept = math.inf
        sigma_cut = 0.0
        conclusive = True
        kernel_modes = None
        if self.lap is not None:
            dlist = []
            for q in range(self.n + 1):
                kernel, cut, kept, ok = self.lap[q].finalize(self.tol_rel)
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
            ker_even, cut, kept, ok = self.dsv.finalize(math.sqrt(self.tol_rel))
            sigma_cut = max(sigma_cut, cut)
            sigma_kept = min(sigma_kept, kept)
            conclusive = conclusive and ok
        return _BoxRun(dims, ker_even, sigma_kept, sigma_cut, conclusive, kernel_modes)


def _iterative_small_eigs(Lap, k: int, rng) -> tuple[np.ndarray, float, bool]:
    """Smallest eigenvalues of a sparse Hermitian PSD matrix, in order, plus its largest."""
    from scipy.sparse.linalg import eigsh, lobpcg

    Lap = Lap.tocsr()
    dim = Lap.shape[0]
    if dim < max(64, 5 * k):
        vals = np.linalg.eigvalsh(Lap.toarray())
        return vals, float(vals[-1]), True
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
    return np.sort(vals), vmax, complete


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
    """Kernel-count difference of the compressed even-to-odd operator D.

    Defined for flat and non-flat connections alike.  The even and odd
    compressions of a free module have equal dimension, so D is square and
    its kernel and cokernel have equal dimension: the index is 0 by
    construction, matching the zero top component of the free K-class.
    The singular values of D still decide whether the kernel gap is
    resolved, which sets conclusive, stable and sigma_*.  They are read off
    DD^* on the odd forms, the direct sum of the odd Laplacians plus the
    defect blocks A_{q+1} A_q: Delta_1 itself at n <= 2.
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
