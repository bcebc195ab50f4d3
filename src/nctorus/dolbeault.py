"""Truncated Dolbeault complexes on free modules over noncommutative tori.

The module E = A^r carries operators nabla_j = dbar_j + a_j, one per
antiholomorphic direction, where dbar_j = sum_k W[j,k] delta_k acts
diagonally on lattice modes and a_j acts by left multiplication.  The
complex on (0,q)-forms is compressed to the mode box |m|_inf <= N
(Dirichlet cut: coefficients leaving the box are dropped), and kernel
dimensions are read off spectral gaps.

Key structural facts the implementation leans on:

* the monomial basis is orthonormal for the trace inner product, so
  the compressed Hilbert space is plain l2 over (modes x fiber), with a
  small Gram matrix on the form indices induced by the metric;
* left multiplication by a monomial U^s moves mode m to m + s with a
  phase given by the product cocycle, so the coupling graph on modes
  decomposes the operator into independent blocks (single modes for
  constant terms, translation chains for single-direction supports);
* the connection is one table of fiber matrices, one per step s_k and
  direction j (s_0 = 0 the constant part), so the direction operators
  T_j of a block share one layout in which each entry appears once, and
  every degree operator A_q = sum_j S~[j][q] (x) T_j is one contraction
  over j with unique positions, nothing sorted or merged; blocks of one
  size and coupling pattern are processed in batches that share one
  sparsity pattern, for dense batches and sparse components alike, which
  keeps everything deterministic and exact to working precision;
* a batch's spectra are those of one list of matrices (_Engine._spectra),
  the Laplacians Delta_q and DD^* on the odd forms, for every n; a block
  is assembled only when bounds from the Koszul covectors of its modes
  (_Engine._mode_bounds) let it change a kernel decision, and eigensolved
  only when the Gershgorin discs of its formed matrix do too, by one rule
  (_Engine._pick);
* with scalar constant terms a_j = c_j 1 and no other terms every mode is
  a Koszul complex, whose spectra are written down in closed form over the
  whole box; single-mode components of a coupled connection are blocks;
* the collectors take raw eigenvalues, one partition of each eigensolved
  batch, slab or sparse solve (_feed), and keep those at or below their
  provisional cutoffs, the degree-0 one with the flat mode of each value
  from a single-mode block, from which kernel_modes_q0 is read.

One engine per public call sets up what does not depend on N and runs the
boxes N and N + 2.  Coupling components are read off the box's grid shape
(_chains: one step's chains directly, the graph of more steps labelled by
_components); check_box is the one box-size rule.  Only sparse components
and the operator export import scipy.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

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
# the bounds that decide which blocks skip the eigensolve are widened by
# _DISC_SLACK * m * eps * (disc radius) for the discs of a formed m x m block, and
# by _DISC_SLACK * (m + steps)^2 * eps * (a bound on every value) for mode bounds
_DISC_SLACK = 64.0
_EPS = float(np.finfo(float).eps)


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
            if not all(cmath.isfinite(c) for row in t.entries for fe in row
                       for c in fe.coeffs.values()):
                raise ValueError("connection coefficients must be finite")

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
    """Curvature F_jk = dbar_j(a_k) - dbar_k(a_j) + [a_j, a_k], exactly.

    F is antisymmetric: each pair j < k is evaluated once, F_kj = -F_jk and
    F_jj = 0.
    """
    n = conn.n
    if frame.n != n:
        raise ValueError("frame and connection disagree on the complex dimension")
    zero = MatrixElement.zeros(conn.theta, conn.rank)
    F = [[zero] * n for _ in range(n)]
    max_abs = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            aj, ak = conn.terms[j], conn.terms[k]
            fjk = dbar_apply(frame, j, ak) - dbar_apply(frame, k, aj) + (aj @ ak) - (ak @ aj)
            F[j][k], F[k][j] = fjk, fjk.scale(-1)
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
        F = np.array(forms[q], dtype=np.intp)
        # Mq[b, a] = det M1[B, A], one det over the stacked minors (1 at q = 0)
        Mq = np.linalg.det(M1[F[:, None, :, None], F[None, :, None, :]])
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
    """The steps s_0 = 0, s_1 < s_2 < ... of the terms and their coefficient table.

    a_j = sum_k coef[k, j] U^{s_k}: coef (steps, n, r, r) holds in coef[k, j]
    the fiber matrix that a_j carries along step s_k, s_0 the constant part.
    """
    n, r, d = conn.n, conn.rank, conn.theta.d
    entries = [(j, i2, i1, m, c) for j in range(n) for i2 in range(r) for i1 in range(r)
               for m, c in conn.terms[j].entries[i2][i1].coeffs.items()]
    zero = (0,) * d
    steps = [zero] + sorted({m for _, _, _, m, _ in entries} - {zero})
    at = {s: k for k, s in enumerate(steps)}
    coef = np.zeros((len(steps), n, r, r), dtype=complex)
    for j, i2, i1, m, c in entries:
        coef[at[m], j, i2, i1] = c
    return steps, coef


# -- spectral collectors -------------------------------------------------


class _Collector:
    """Streams the eigenvalues of Hermitian matrices, keeping only what the
    threshold decision needs: the global max, values at or below a
    provisional cutoff prov, and the smallest value above it.

    Values reach it raw, only through _feed.  Each feed keeps its values at
    or below prov as one array, with their multiplicity and, for a collector
    that keeps modes, the flat mode index of each: the evidence from which
    _Engine._finalize decodes the modes of the degree-0 kernel.  A
    non-finite value marks the run incomplete.

    Only finalize converts to the reporting unit, on the kept values, vmax
    and above: |lambda| for a Laplacian collector, sqrt(max(lambda, 0)) for
    a singular-value one (singular), which reads D's singular values off
    DD^*.  sqrt is monotone and correctly rounded, so it commutes with the
    max and min taken here; |.| changes neither above (> prov > 0) nor vmax,
    as the matrices are PSD up to rounding far below their largest value.
    So the decision is that of converted values whenever prov is at least
    the threshold in raw units, which keeps every value below it.  Since
    nothing else is kept, a batch need not be fed whole (_Engine._pick).
    """

    def __init__(self, prov: float, singular: bool = False):
        self.prov = prov
        self.singular = singular
        self.kept: list[tuple[np.ndarray, int, np.ndarray | None]] = []
        self.vmax = 0.0
        self.above = math.inf
        self.incomplete = False

    def finalize(self, tol_rel: float):
        """(kernel, cut, kept, conclusive) in the reporting unit, thresh = tol_rel * its max.

        kernel counts the values below thresh, with multiplicity; cut is the
        largest of them and kept the smallest value at or above it (inf when
        there is none).  The count is conclusive when both sit a factor
        _GAP_BAND clear of thresh.  kernel_modes gets the (flat modes or
        None, multiplicity) of each feed's kernel values.
        """
        def unit(x):
            return np.sqrt(np.maximum(x, 0.0)) if self.singular else np.abs(x)

        thresh = tol_rel * float(unit(self.vmax))
        kernel = 0
        cut = 0.0
        kept = float(unit(self.above))
        self.kernel_modes = []
        for vals, mult, at in self.kept:
            vals = unit(vals)
            ker = vals < thresh
            kernel += mult * int(np.count_nonzero(ker))
            cut = max(cut, float(np.max(vals, where=ker, initial=0.0)))
            kept = min(kept, float(np.min(vals, where=~ker, initial=math.inf)))
            if ker.any():
                self.kernel_modes.append((None if at is None else at[ker], mult))
        return kernel, cut, kept, (cut <= thresh / _GAP_BAND and kept >= thresh * _GAP_BAND
                                   and not self.incomplete)


def _feed(feeds, values: np.ndarray, modes_at=None) -> None:
    """Feed raw eigenvalues to each (collector, multiplicity, keeps modes) of feeds.

    It takes one max (NaN or inf if a value is not finite), one compare with
    the largest prov and one masked min above it; each collector filters the
    few values at or below it by its own prov.  All are exact, so each ends
    as if fed alone.  modes_at maps positions in the flattened values to
    flat mode indices.
    """
    v = values.reshape(-1)
    if not feeds or not v.size:
        return
    top = float(v.max())
    if not math.isfinite(top):
        for col, _, _ in feeds:
            col.incomplete = True
        return
    below = v <= max(col.prov for col, _, _ in feeds)
    at = np.flatnonzero(below)
    low = v[at]
    rest = float(np.min(v, where=np.logical_not(below, out=below), initial=math.inf))
    for col, mult, keeps in feeds:
        col.vmax = max(col.vmax, top)
        mine = low <= col.prov
        k = np.flatnonzero(mine)
        if k.size:
            col.kept.append((low[k], mult, modes_at(at[k]) if keeps and modes_at else None))
        if k.size < v.size:
            col.above = min(col.above, rest, float(np.min(low, where=~mine, initial=math.inf)))


def _add_iterative(feeds, values: np.ndarray, vmax: float, complete: bool, dim: int) -> None:
    """Feed _iterative_small_eigs' smallest values of a dim x dim matrix, and its largest."""
    _feed(feeds, values)
    for col, _, _ in feeds:
        col.vmax = max(col.vmax, vmax)
        # if every computed value sits below the provisional cutoff,
        # more kernel candidates may exist beyond the solver's block
        if not complete or (values.size < dim and float(values.max()) <= col.prov):
            col.incomplete = True


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


def check_box(d: int, N: int, conn: FreeConnection | None = None) -> None:
    """Refuse, with a ValueError, a truncation N whose boxes the engine does not run.

    The runs at N and N + 2 fit when the larger, N + 2, holds K <= 10^8
    modes and, with s >= 1 coupling steps, its per-mode arrays (int32
    targets per step, |v~| in flat and component order, the layout and
    pos_of) hold at most 10^9 bytes, K (4s + 24): 35.7M modes on one step.
    d = 2n; None stands for the trivial connection.
    """
    K = mode_count(d, N + 2)
    s = 0 if conn is None else len(_connection_data(conn)[0]) - 1
    if K > 10 ** 8 or (s and K * (4 * s + 24) > 10 ** 9):
        raise ValueError(f"the N + 2 box at N = {N} has {2 * N + 5}^{d} modes, more than "
                         f"the engine runs for {'a coupled' if s else 'any'} connection")


def _radix(d: int, N: int) -> np.ndarray:
    return (2 * N + 1) ** np.arange(d, dtype=np.int64)


def _box_targets(steps, d: int, N: int) -> np.ndarray:
    """targets[k, m]: the flat index of mode m + steps[k], -1 when it leaves the box, in int32.

    The box is the C-order grid (side,) * d, axis j at position d - 1 - j.
    m + s stays in it on a range of each axis, |m_j + s_j| <= N, where its
    flat index is m's plus s . radix; check_box keeps K < 2^31.
    """
    side = 2 * N + 1
    flat = np.arange(side ** d, dtype=np.int32).reshape((side,) * d)
    out = np.full((len(steps),) + flat.shape, -1, dtype=np.int32)
    for t, s in zip(out, steps):
        if max(map(abs, s)) < side:
            box = tuple(slice(max(0, -sj), side - max(0, sj)) for sj in reversed(s))
            np.add(flat[box], int(np.dot(s, _radix(d, N))), out=t[box])
    return out.reshape(len(steps), flat.size)


def _decode_modes(flat: np.ndarray, d: int, N: int) -> np.ndarray:
    """The (len(flat), d) coordinates of flat mode indices, axis j at grid position d - 1 - j."""
    return np.stack(np.unravel_index(flat, (2 * N + 1,) * d)[::-1], axis=1) - N


def _phases(theta: ThetaMatrix, step, modes: np.ndarray) -> np.ndarray:
    """exp(2 pi i sigma(step, m)) for each row m of modes."""
    ls = theta.sigma_step_vector(step)
    sig = modes @ ls
    return np.exp(2j * math.pi * np.mod(sig, 1.0))


def _components(K: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component labels of the undirected graph on nodes 0..K-1 with edges src-dst.

    Components are numbered by their least node, in increasing order, as
    scipy.sparse.csgraph.connected_components numbers them.  Each round
    hooks every root that an edge joins to a smaller root onto the least
    such root, then jumps pointers until every node points at its root.
    parent[x] <= x throughout, so each root ends as its component's least
    node.  Edges inside one component are dropped as they appear.  Nodes
    and labels are int32 (K < 2^31), as the edges of _box_targets are.
    """
    parent = np.arange(K, dtype=np.int32)
    while True:
        a, b = parent[src], parent[dst]
        cross = a != b
        if not cross.any():
            break
        if not cross.all():
            src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots = parent == np.arange(K, dtype=np.int32)
    return (np.cumsum(roots, dtype=np.int32) - 1)[parent]


def _chains(steps, d: int, N: int):
    """(grouped, starts, sizes, pos_of): the coupling components of the box |m|_inf <= N.

    Component g, numbered by least flat index as _components numbers them,
    holds modes grouped[starts[g]:starts[g] + sizes[g]] in flat order, mode m
    at position pos_of[m]; pos_of[-1] = -1 keeps a target outside the box at
    -1.  Two or more steps label the edges of _box_targets (_components).
    One step s splits the box into chains m, m + s, m + 2s, ... read off the
    grid: on each axis j that s moves, m can step back (N + sgn(s_j) m_j) //
    |s_j| times and ahead (N - sgn(s_j) m_j) // |s_j| times; the box is
    convex, so a mode's steps back and ahead are the minima over the axes.
    Flat order follows the chain when delta = s . radix > 0; back and ahead
    swap when delta < 0.  A root (back = 0) is its chain's least mode, and
    the chain holds ahead + 1 modes |delta| apart.  A step leaving the box
    leaves every mode alone; its delta, which may pass int32, is set to 0.
    One step's arrays are int32 (K < 2^31).
    """
    side, K, grid = 2 * N + 1, mode_count(d, N), (2 * N + 1,) * d
    pos_of = np.full(K + 1, -1, dtype=np.int32)
    if len(steps) > 1:
        targets = _box_targets(steps, d, N)
        ok = targets >= 0
        labels = _components(K, np.broadcast_to(np.arange(K, dtype=np.int32), ok.shape)[ok],
                             targets[ok])
        del targets, ok
        sizes = np.bincount(labels)
        grouped, starts, _ = _group(labels)
        pos_of[grouped] = np.arange(K) - np.repeat(starts, sizes)
        return grouped, starts, sizes, pos_of
    (s,) = steps
    delta = int(np.dot(s, _radix(d, N))) if max(map(abs, s)) < side else 0
    back = ahead = np.int32(side)
    for j, sj in [(j, sj) for j, sj in enumerate(s) if sj]:
        m = np.arange(-N, N + 1, dtype=np.int32).reshape((side,) + (1,) * j) * (1 if sj > 0 else -1)
        back, ahead = np.minimum(back, (N + m) // abs(sj)), np.minimum(ahead, (N - m) // abs(sj))
    if delta < 0:
        back, ahead = ahead, back
    pos_of[:-1].reshape(grid)[...] = back
    roots = np.flatnonzero(pos_of[:-1] == 0).astype(np.int32)
    sizes = np.broadcast_to(ahead, grid).reshape(-1)[roots] + np.int32(1)
    starts = np.cumsum(sizes, dtype=np.int32) - sizes
    grouped = (np.arange(K, dtype=np.int32) - np.repeat(starts, sizes)) * abs(delta)
    grouped += np.repeat(roots, sizes)
    return grouped, starts, sizes, pos_of


def _pattern_groups(patterns: np.ndarray):
    """Sets of components of equal coupling pattern, in order of first appearance.

    patterns[:, g] is the pattern of component g.  Takes the first remaining
    component, gathers every component equal to it and repeats, so a size
    class with one pattern costs one comparison.
    """
    rest = np.arange(patterns.shape[1])
    while rest.size:
        same = np.all(patterns[:, rest] == patterns[:, rest[:1]], axis=(0, 2))
        yield rest[same]
        rest = rest[~same]


# -- batches of matrices that share one sparsity pattern -------------------


def _group(keys: np.ndarray):
    """Stable sort of nonnegative keys: (order, start of each run of one key, the distinct keys)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return order, starts, keys[starts]


def _pairs(xcols: np.ndarray, yrows: np.ndarray):
    """Entry pairs (i, j) with xcols[i] == yrows[j], ordered by i, then by j."""
    order = np.argsort(yrows, kind="stable")
    ysorted = yrows[order]
    lo = np.searchsorted(ysorted, xcols, "left")
    counts = np.searchsorted(ysorted, xcols, "right") - lo
    i = np.repeat(np.arange(xcols.size), counts)
    j = order[np.arange(i.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    return i, j


class _Sparse:
    """g matrices of one shape that share their nonzero positions.

    Entry k sits at (rows[k], cols[k]) in every matrix, no two entries at
    one position, and values[:, k] holds its g values.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape, values: np.ndarray):
        self.rows, self.cols, self.shape, self.values = rows, cols, tuple(shape), values

    def __len__(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def H(self) -> "_Sparse":
        """The adjoints: the index arrays swapped and the (g, nnz) values conjugated."""
        return _Sparse(self.cols, self.rows, self.shape[::-1], self.values.conj())

    def dense(self, idx=slice(None)) -> np.ndarray:
        """The matrices idx as one dense (len(idx), rows, cols) array."""
        values = self.values[idx]
        out = np.zeros((values.shape[0],) + self.shape, dtype=values.dtype)
        out[:, self.rows, self.cols] = values
        return out


def _product(terms) -> _Sparse:
    """sum_t X_t Y_t of _Sparse batches, each term (X_t, Y_t, r0, c0) placed at an offset.

    Gustavson's row-wise sparse product.  The symbolic half, from the index
    arrays alone, pairs each entry (i, k) of X_t with each entry (k, j) of
    Y_t and sorts the pairs by their output position (r0 + i, c0 + j).  The
    numeric half multiplies the paired values of the batch and sums each run
    of pairs at one position, over the blocks in slices of at most 2M paired
    values, which bounds the temporaries; each block's sums do not depend on
    the slicing.
    """
    shape = (max(r0 + X.shape[0] for X, _, r0, _ in terms),
             max(c0 + Y.shape[1] for _, Y, _, c0 in terms))
    keys, left, right = [], [], []
    xoff = yoff = 0
    for X, Y, r0, c0 in terms:
        i, j = _pairs(X.cols, Y.rows)
        keys.append((X.rows[i] + r0) * shape[1] + Y.cols[j] + c0)
        left.append(i + xoff)
        right.append(j + yoff)
        xoff += X.rows.size
        yoff += Y.rows.size
    order, starts, keys = _group(np.concatenate(keys))
    left = np.concatenate(left)[order]
    right = np.concatenate(right)[order]
    step = max(1, 2_000_000 // max(left.size, 1))
    sums = []
    for start in range(0, len(terms[0][0]), step):
        blocks = slice(start, start + step)
        pairs = np.concatenate([X.values[blocks] for X, _, _, _ in terms], axis=1)[:, left]
        pairs *= np.concatenate([Y.values[blocks] for _, Y, _, _ in terms], axis=1)[:, right]
        sums.append(np.add.reduceat(pairs, starts, axis=1))
    rows, cols = np.divmod(keys, shape[1])
    return _Sparse(rows, cols, shape, sums[0] if len(sums) == 1 else np.concatenate(sums))


# -- bounds on the spectra of Hermitian batches ------------------------------


def _disc_bounds(M: _Sparse):
    """(diag, rows) of a formed Hermitian batch for _spectral_bounds.

    diag (m, g) holds the diagonal entries M_ii of the g blocks, rows the
    sums sum_j |M_ij| of the values, which are the entries of the dense
    blocks _Sparse.dense builds from them.
    """
    m = M.shape[-1]
    order, starts, present = _group(M.rows)
    rows = np.zeros((len(M), m))
    rows[:, present] = np.add.reduceat(np.abs(M.values)[:, order], starts, axis=1)
    on = M.rows == M.cols
    diag = np.zeros((len(M), m))
    diag[:, M.rows[on]] = M.values[:, on].real
    return diag.T, rows.T


def _spectral_bounds(diag: np.ndarray, rows: np.ndarray):
    """Per block (lo, hi, least, most) for _Engine._pick from the discs of _disc_bounds.

    diag and rows are (m, g), one column per block.  By Gershgorin's
    theorem every eigenvalue of block b lies in [lo_b, hi_b], lo_b =
    min_i (2 M_ii - sum_j |M_ij|), hi_b = max_i sum_j |M_ij|, and its
    smallest (largest) eigenvalue is at most (at least) its smallest
    (largest) diagonal entry, least_b (most_b).  Each is moved outward by
    _DISC_SLACK * m * eps * hi_b, which covers the rounding of the sums and
    the backward error of eigvalsh.  So every value eigvalsh returns for
    block b lies in [lo_b, hi_b], its smallest is at most least_b and its
    largest at least most_b.  Bounds that are not finite stay so.
    """
    radius = rows.max(axis=0)
    slack = _DISC_SLACK * diag.shape[0] * _EPS * radius
    return (np.min(2.0 * diag - rows, axis=0) - slack, radius + slack,
            diag.min(axis=0) + slack, diag.max(axis=0) - slack)


# -- the engine ----------------------------------------------------------


class _Engine:
    """The N-independent set-up of one connection, run on one box at a time by run."""

    def __init__(self, cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                 tol_rel: float):
        n = frame.n
        if conn.n != n:
            raise ValueError("connection and frame disagree on the complex dimension")
        theta = conn.theta
        if theta.d != 2 * n:
            raise ValueError("Theta size and frame dimension disagree")
        self.frame = frame
        self.n, self.d, self.r = n, 2 * n, conn.rank
        self.theta = theta
        self.tol_rel = tol_rel

        self.forms = _form_indices(n)
        self.fdims = [len(f) for f in self.forms]
        signs = _wedge_signs(n, self.forms)
        metric = invariant_metric(cs)
        Ls, Linvs = _form_grams(frame, metric.G, self.forms)
        self.Stil = _tilde_signs(signs, Ls, Linvs, n)
        self.L1 = Ls[1]

        self.steps, self.coef = _connection_data(conn)
        # v~(m) = (w(m) + c) L1-bar = v0 + sum_k m_k U[k], c the shift, is the
        # Koszul covector of mode m, kept as real and imaginary parts side by
        # side (2n real columns); off is what the connection holds beyond it,
        # nothing when every constant fiber matrix is c_j I_r and none couples
        shift = self.coef[0, :, 0, 0]
        off = self.coef.copy()
        off[0] -= shift[:, None, None] * np.eye(self.r)
        self.scalar_const = not off[0].any()
        U = (2j * math.pi) * (frame.W.T @ self.L1.conj())
        v0 = shift @ self.L1.conj()
        self.U = np.hstack([U.real, U.imag])
        self.v0 = np.concatenate([v0.real, v0.imag])

        # the parts of the operator norm bounds that do not depend on N
        self.wsum = np.sum(np.abs(frame.W), axis=1)
        self.coupn = (np.linalg.norm(self.coef[0], 2, axis=(1, 2))
                      + np.abs(self.coef[1:]).sum(axis=(0, 2, 3)))
        self.snorm = [np.linalg.norm(np.array([Sj[q] for Sj in self.Stil]), 2, axis=(1, 2))
                      for q in range(n)]
        # gamma bounds the norm of the part of D off the modes' Koszul complexes (_mode_bounds)
        rho = np.linalg.norm(off, 2, axis=(2, 3)).sum(axis=0)
        self.gamma = 2.0 * max(float(sq @ rho) for sq in self.snorm)
        # what one mode of a single-mode block holds: A_q, A_q^* and the pairs of their products
        a, b = np.array(self.fdims[:-1]), np.array(self.fdims[1:])
        self.mode_entries = self.r ** 2 * int(a * b @ (2 + self.r * (a + b)))

    # -- closed-form path ------------------------------------------------

    def _box_koszul_eigenvalues(self, N: int):
        """Yield (first flat index, |v~|^2) over the box |m|_inf <= N, one slab at a time.

        With a_j = c_j 1 and no coupling the complex on one mode is the
        Koszul complex of the covector v = w + c: wedge multiplication by v.
        Every degree of its Laplacian has the single eigenvalue |v~|^2,
        v~ = v L1-bar, with full multiplicity.

        In flat order (axis 0 fastest) the n fastest axes give y, their part
        of v~, one per column; the n slower axes plus v~(0) give x, one per
        row.  check_box caps the N + 2 box at 10^8 modes, so there are at most
        side^n <= 10^4 columns.  A slab, a run of rows of at most 2M modes, is
        one real product: |x + y|^2 = X' Y'^T with X' = [2x, |x|^2, 1] and
        Y' = [y, 1, |y|^2], 2n + 2 columns each.  Its absolute error is at
        most about (2n + 3) eps (|x| + |y|)^2 (Higham, Accuracy and Stability
        of Numerical Algorithms, 2nd ed., 3.1), far below the gap band;
        cancellation can leave a kernel mode slightly negative, so the slab
        is clipped at 0.  Only the slow coordinates of a slab are decoded.
        """
        n = self.n
        side = 2 * N + 1
        y = _decode_modes(np.arange(side ** n), n, N) @ self.U[:n]
        Y = np.column_stack([y, np.ones(len(y)), np.einsum("ij,ij->i", y, y)])
        rows = 2_000_000 // len(Y)
        for o0 in range(0, side ** n, rows):
            o1 = min(o0 + rows, side ** n)
            x = _decode_modes(np.arange(o0, o1), n, N) @ self.U[n:] + self.v0
            X = np.column_stack([2 * x, np.einsum("ij,ij->i", x, x), np.ones(len(x))])
            lam = X @ Y.T
            np.maximum(lam, 0.0, out=lam)
            yield o0 * len(Y), lam.reshape(-1)

    # -- block paths ------------------------------------------------------

    def _direction_terms(self, mvec: np.ndarray, pattern: np.ndarray):
        """The direction operators T_j = dbar_j + a_j of g blocks, on one layout.

        mvec (g, c, d) holds the coordinates of g blocks of c modes each;
        pattern[k] is the position within the block that step s_k sends each
        member to (-1: out of the box), one row shared by the g blocks, and
        pattern[0] = arange(c).  T_j indexes (position, fiber) with the fiber
        fastest.  Returns (rows, cols, reach, values): entry e sits at
        (rows[e], cols[e]), belongs to T_j where reach[j, e], and values[j, :, e]
        holds its g values in T_j (zero where it does not belong).  The entries
        are those of step s_k from member i to pattern[k, i] and fiber i1 to i2
        where some coef[k, j, i2, i1] is nonzero, plus the diagonal, where
        every T_j has its frequency w_j.  Distinct steps send a member to
        distinct positions, so no two entries share a position.
        """
        r = self.r
        g, c, _ = mvec.shape
        modes = mvec.reshape(-1, self.d)
        rows, cols, reach, values = [], [], [], []
        for k, (step, tgt) in enumerate(zip(self.steps, pattern)):
            on = self.coef[k] != 0
            if k == 0:
                on |= np.eye(r, dtype=bool)  # the diagonal, where T_j holds w_j
            i2, i1 = np.nonzero(on.any(axis=0))
            src = np.nonzero(tgt >= 0)[0]
            if not src.size:
                continue
            rows.append((i2[:, None] + r * tgt[src]).reshape(-1))
            cols.append((i1[:, None] + r * src).reshape(-1))
            reach.append(np.repeat(on[:, i2, i1], src.size, axis=1))
            ph = _phases(self.theta, step, modes).reshape(g, c)[:, src] if k else np.ones((g, c))
            v = self.coef[k][:, i2, i1][:, None, :, None] * ph[:, None, :]  # (n, g, fiber, member)
            if k == 0:
                w = ((2j * math.pi) * (modes @ self.frame.W.T)).reshape(g, c, self.n)
                v[:, :, i2 == i1] += w.transpose(2, 0, 1)[:, :, None]
            values.append(v.reshape(self.n, g, -1))
        return (np.concatenate(rows), np.concatenate(cols), np.concatenate(reach, axis=1),
                np.concatenate(values, axis=2))

    def _degree_operators(self, mvec: np.ndarray, pattern: np.ndarray) -> list[_Sparse]:
        """The degree operators A_q = sum_j S~[j][q] (x) T_j of g blocks, as _Sparse.

        Arguments as in _direction_terms.  A_q maps C_q to C_{q+1} and
        indexes (form, position, fiber) with the fiber fastest, so form b of
        a block of cr = c*r rows starts at row b*cr.  Block (b, a) of A_q
        holds the entries of the T_j with S~[j][q][b, a] != 0, each once, and
        its values are one contraction over j.  The index arrays depend on
        pattern alone, so every batch of one pattern gets the same ones.
        """
        g, c, _ = mvec.shape
        cr = c * self.r
        rows, cols, reach, values = self._direction_terms(mvec, pattern)
        ops = []
        for q in range(self.n):
            S = np.array([Sj[q] for Sj in self.Stil])
            b, a = np.nonzero(np.any(S != 0, axis=0))
            weights = S[:, b, a]
            # keep[e, p]: entry e lies in block (b[p], a[p])
            keep = np.any(reach[:, :, None] & (weights != 0)[:, None, :], axis=0)
            e, p = np.nonzero(keep)
            vals = np.tensordot(values, weights, (0, 0)).reshape(g, -1)[:, keep.reshape(-1)]
            ops.append(_Sparse(b[p] * cr + rows[e], a[p] * cr + cols[e],
                               (self.fdims[q + 1] * cr, self.fdims[q] * cr), vals))
        return ops

    def _run_blocks(self, members: np.ndarray, pattern: np.ndarray):
        """Dense spectra of blocks that share one coupling pattern, in batches.

        members (G, c) holds the flat mode indices of G blocks, which the
        mode pick of run kept; pattern is as in _direction_terms.  Each batch
        is assembled and the matrices of _spectra on it are eigensolved, each
        on the blocks its discs pick (_eigensolve).  Blocks of one mode give
        their flat indices to lap[0], for kernel_modes_q0.  A batch holds at
        most 8M entries counted per block: the widest matrix dense, 2^(n-1) *
        c * r rows (Delta_q at n <= 2, DD^* on the odd forms above), and per
        mode what a single-mode block holds, its A_q and their adjoints and
        the paired values of its Delta_q products.
        """
        G, c = members.shape
        big = 2 ** (self.n - 1) * c * self.r
        chunk = max(1, 8_000_000 // (big * big + c * self.mode_entries))
        for start in range(0, G, chunk):
            sub = members[start:start + chunk]
            mvec = _decode_modes(sub.reshape(-1), self.d, self.N).reshape(len(sub), c, self.d)
            for terms, feeds in self._spectra(self._degree_operators(mvec, pattern)):
                self._eigensolve(terms, feeds, sub[:, 0] if c == 1 else None)

    def _covector_norms(self, N: int) -> np.ndarray:
        """|v~(m)| = ||v0 + m U|| of every mode of the box |m|_inf <= N, in flat order.

        x and y are as in _box_koszul_eigenvalues, each summed over its grid
        one broadcast axis at a time, so no coordinate is decoded.  A slab of
        rows, at most 2^15 modes, sums the squares of x + y one of the 2n real
        columns at a time: no K x 2n float array is formed.
        """
        n = self.n
        coord = np.arange(-N, N + 1)[:, None]
        y, x = np.zeros(2 * n), self.v0
        for k in reversed(range(n)):
            y, x = y[..., None, :] + coord * self.U[k], x[..., None, :] + coord * self.U[n + k]
        y, x = y.reshape(-1, 2 * n), x.reshape(-1, 2 * n)
        out = np.zeros((len(x), len(y)))
        rows = max(1, 2 ** 15 // len(y))
        for a in range(0, len(x), rows):
            for col in range(2 * n):
                t = np.add.outer(x[a:a + rows, col], y[:, col])
                out[a:a + rows] += np.square(t, out=t)
        return np.sqrt(out, out=out).reshape(-1)

    def _mode_bounds(self, low: np.ndarray, high: np.ndarray, width):
        """Per block (lo, hi, least, most) for _pick, from the Koszul covectors of its modes.

        low and high hold per block the least and the largest |v~(m)| of its
        modes m (_covector_norms); every matrix of _spectra on block b,
        Delta_q or DD^*, has at most width_b rows.

        The bound.  Let D_b = dbar + dbar^* on all forms of block b and c =
        coef[0, :, 0, 0].  Then T_j = (w_j + c_j) 1 + B_j, where B_j holds
        coef[0, j] - c_j 1 on each mode and, along each step s_k, coef[k, j]
        times a partial isometry (a shift with phases, cut at the box), so
        ||B_j|| <= rho_j = sum_k ||off[k, j]||.  So D_b = D_0 + B.  On each
        mode m, D_0 is the Koszul complex of v~(m) = v0 + m U (wedge by
        w + c in orthonormal form bases), so D_0(m)^2 = |v~(m)|^2 1 on all
        forms and the eigenvalues of D_0 are +-|v~(m)|, m in b.  B = X + X^*,
        where X maps each C_q to C_{q+1} by sum_j S~[j][q] (x) B_j, of norm at
        most sum_j ||S~[j][q]|| rho_j; the C_q are orthogonal, so ||X|| is the
        largest of these and ||B|| <= 2 ||X|| <= gamma.  By Weyl's inequality
        every eigenvalue of D_b lies within gamma of one of D_0, so its
        modulus lies in [(min_b |v~| - gamma)_+, max_b |v~| + gamma].
        Delta_q is the diagonal block of
        D_b^2 on C_q, and DD^* the one on the odd forms, D_b being [[0, D^*],
        [D, 0]] on even and odd forms; so by Cauchy interlacing the values of
        both lie in [lo, hi] = [(min - gamma)_+^2, (max + gamma)^2], whether
        or not the batch forms a complex.  For a unit phi in one degree (an
        odd one for DD^*) and x = e_m (x) phi, the Rayleigh quotient is x^*
        D_b^2 x = ||D_b x||^2, and ||D_0 x|| = |v~(m)|: so the smallest value
        is at most least = (min + gamma)^2 and the largest at least most =
        (max - gamma)_+^2 (Horn & Johnson, Matrix Analysis, ch. 4).

        The margin.  Each bound moves outward by _DISC_SLACK (w + s)^2 u H,
        u = eps, w = width_b, s the number of steps and H = value_bound =
        (sum_q opbound_q + gamma)^2 (run), at least every value here.  With
        gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., 3.1, 3.5 and 3.6) and sigma = ||v0|| +
        N sum_k ||U[k]|| <= opbound_0 (||S~[j][0]|| is the norm of row j of
        L1), the rounding, in units of u H on the squared bounds, is at most:
        - 2.1 (3d + 5) from |v~|: v0 + m U, its d + 1 terms summed in any
          order, and its norm are within gamma_{2d+3} sigma of exact, and the
          rounded w_j move v~ by gamma_{d+2} opbound_0 more;
        - 2.1 (n s + 32 w) from gamma, a sum of n s products of 2-norms that
          LAPACK's SVD returns within 16 w u; rounded phases keep the shifts
          within 2u of partial isometries;
        - 6.2 (n + 2) sqrt(w) from the contraction over j in A_q: its entries
          are within sqrt(2) gamma_{n+2} of a matrix of moduli, of norm at
          most sqrt(w) opbound_q;
        - 5.8 w (w + 1) from the products: an entry of the matrix sums at
          most 2w paired products, and || |X| || <= sqrt(w) ||X||;
        - 64 w from eigvalsh, the backward error the discs allow it, and 4
          from the squares and sums here.
        With n <= 2^(n-1) <= w and s >= 1 these add up to less than 64 (w +
        s)^2.
        """
        g = self.gamma
        slack = _DISC_SLACK * (width + len(self.steps)) ** 2 * _EPS * self.value_bound
        return (np.maximum(low - g, 0.0) ** 2 - slack, (high + g) ** 2 + slack,
                (low + g) ** 2 + slack, np.maximum(high - g, 0.0) ** 2 - slack)

    def _pick(self, lo, hi, least, most, feeds) -> np.ndarray:
        """Indices of the blocks of a Hermitian batch whose values can change a collector.

        For every matrix whose raw eigenvalues go to the collectors of
        feeds, the values of block b lie in [lo_b, hi_b], the smallest is at
        most least_b and the largest at least most_b.  The bounds come from
        the blocks' modes before assembly, for all the matrices of the box's
        blocks (_mode_bounds), or from the discs of one formed matrix
        (_spectral_bounds): one rule for both.  The collectors are read as
        they stand before the batch is fed, and combined conservatively:
        the largest prov and above, the smallest vmax.

        Let U be the smallest least_b of the blocks with lo_b > prov and V the
        largest most_b of the batch.  A block is skipped when lo_b >
        max(prov, min(above, U)) and hi_b < max(vmax, V).  Every value it
        would feed lies in [lo_b, hi_b], so:
        - it has none at or below prov, and no collector would keep one;
        - it has none at or below min(above, U).  When U < above, the block
          holding U is solved, as its lo_b is at most U.  Its smallest value,
          above prov and at most U, leaves above at or below U.  So the final
          above is at most min(above, U), below every value of the skipped
          block;
        - it has none at or above max(vmax, V).  When V > vmax, the block
          holding V is solved (its hi_b is at least V), and its largest
          value, at least V, raises vmax to V or more.  So the final vmax is
          above every value of the skipped block.
        So every collector ends as a solve of the whole batch would leave
        it, and, since batched eigvalsh solves each block on its own, with
        bitwise the same values.  A block whose bounds are not finite is
        always solved, so a NaN or inf reaches a collector (or eigvalsh's own
        error) instead of being skipped.

        One box-wide mode pick followed by disc picks chunk by chunk does the
        same.  run picks on fresh collectors (above = inf, vmax = 0), so the
        rule reads lo_b <= max(prov, U) or hi_b >= V whatever order the kept
        blocks are solved in; the sparse components, always solved, only
        lower above and raise vmax.  The collector state depends only on the
        multiset of values fed, so by induction over the chunks each disc
        pick keeps every collector as solving all the kept blocks would.  The
        pick of the union of the picks of parts of a batch is its pick: a
        part's U is no smaller and its V no larger, so the union holds all
        the batch's pick keeps, the blocks holding U < above and V > vmax
        among them, and its rule reads the same thresholds.
        """
        prov = max(col.prov for col, _, _ in feeds)
        above = max(col.above for col, _, _ in feeds)
        vmax = min(col.vmax for col, _, _ in feeds)
        clear = lo > prov
        U = np.min(least[clear], initial=math.inf)
        V = np.max(most, initial=-math.inf)
        return np.nonzero((lo <= max(prov, min(above, U))) | (hi >= max(vmax, V))
                          | ~(np.isfinite(lo) & np.isfinite(hi)))[0]

    def _eigensolve(self, terms, feeds, modes: np.ndarray | None):
        """Eigensolve the blocks of one matrix of _spectra that its discs pick, and feed them.

        The matrix sum_t X_t Y_t of terms is formed (_product) and bounded
        by its own discs (_disc_bounds); only the picked blocks are made
        dense.  Their values go to feeds in one _feed; modes, for
        single-mode blocks, holds the flat mode index of each block.
        """
        M = _product(terms)
        idx = self._pick(*_spectral_bounds(*_disc_bounds(M)), feeds)
        if not idx.size:
            return
        vals = np.linalg.eigvalsh(M.dense(idx))
        _feed(feeds, vals, None if modes is None else lambda at: modes[idx][at // vals.shape[1]])

    def _spectra(self, ops: list[_Sparse]):
        """(terms, feeds) of each matrix whose spectrum a collector needs.

        ops are the degree operators A_q of a batch.  The values of the matrix
        sum_t X_t Y_t of terms (_product) go to the (collector, 1, keeps
        modes) of feeds: lap[q] for the Delta_q it holds and dsv for DD^*.  A
        matrix that would feed no collector is not yielded.  Terms, not
        products, are yielded, so the caller forms each matrix once the last
        is freed.

        The matrices hold without dbar^2 = 0: Delta_q = A_q^* A_q +
        A_{q-1} A_{q-1}^*, every degree when the dims are wanted, and DD^* on
        the odd forms, which has the spectrum of D^*D since D = dbar + dbar^*
        (even forms -> odd forms) is square: the odd Delta_q on the diagonal,
        the defect blocks A_{q+1} A_q (C_q -> C_{q+2}) below it and their
        adjoints A_q^* A_{q+1}^* above.  At n <= 2 the only odd degree is 1
        and DD^* is Delta_1; above, it is one product that places each term
        at the offset of its block.
        """
        n = self.n
        dims, index = self.lap is not None, self.dsv is not None

        def feeds(degrees, dd):
            return [(self.lap[q], 1, q == 0) for q in degrees if dims] + \
                ([(self.dsv, 1, False)] if dd else [])

        def delta(q, at=0):
            return ([(ops[q].H, ops[q], at, at)] if q < n else []) + \
                   ([(ops[q - 1], ops[q - 1].H, at, at)] if q > 0 else [])

        for q in range(n + 1):
            delta1 = index and n <= 2 and q == 1
            if dims or delta1:
                yield delta(q), feeds([q], delta1)
        if index and n > 2:
            odds = range(1, n + 1, 2)
            cr = ops[0].shape[1]
            at = list(itertools.accumulate((self.fdims[q] * cr for q in odds), initial=0))
            terms = []
            for i, q in enumerate(odds):
                terms += delta(q, at[i])
                if q + 2 <= n:
                    terms += [(ops[q + 1], ops[q], at[i + 1], at[i]),
                              (ops[q].H, ops[q + 1].H, at[i], at[i + 1])]
            yield terms, feeds([], True)

    def _sparse_component(self, member: np.ndarray, pattern: np.ndarray):
        """Iterative spectra for one component too large for dense blocks.

        The degree operators and the matrices of _spectra are those of a
        dense batch with g = 1; only the final matrices become CSR, for the
        solver, which is asked for 2 r values per form index, plus 6.
        """
        import scipy.sparse as sp

        mvec = _decode_modes(member, self.d, self.N)[None]
        rng = np.random.default_rng(20240711)
        for terms, feeds in self._spectra(self._degree_operators(mvec, pattern)):
            M = _product(terms)
            M = sp.csr_matrix((M.values[0], (M.rows, M.cols)), shape=M.shape)
            vals, vmax, complete = _iterative_small_eigs(M, 2 * M.shape[0] // member.size + 6, rng)
            _add_iterative(feeds, vals, vmax, complete, M.shape[0])

    # -- main --------------------------------------------------------

    def run(self, N: int, want_dims: bool, want_index: bool) -> _BoxRun:
        """The spectra of the box |m|_inf <= N, fed to fresh collectors and finalized."""
        n, d, tol_rel, self.N = self.n, self.d, self.tol_rel, N
        # operator norm bounds used for provisional cutoffs
        wmax = TWO_PI * N * self.wsum
        opbound = np.zeros(n + 1)
        for q in range(n):
            opbound[q] = sum(self.snorm[q][j] * (wmax[j] + self.coupn[j]) for j in range(n))
        lam_bound = [(opbound[q] + (opbound[q - 1] if q > 0 else 0.0)) ** 2 for q in range(n + 1)]
        # at least every value of every block, and the scale of their rounding (_mode_bounds)
        self.value_bound = (opbound.sum() + self.gamma) ** 2
        self.lap = [_Collector(16.0 * tol_rel * max(lam_bound[q], 1e-300))
                    for q in range(n + 1)] if want_dims else None
        # ||D|| is at most the sum of the ||A_q||, so DD^*'s values are at most its square
        self.dsv = _Collector(256.0 * tol_rel * max(opbound.sum() ** 2, 1e-300),
                              singular=True) if want_index else None
        K = mode_count(d, N)
        every = [(col, 1, False) for col in (self.lap or []) + [self.dsv] if col is not None]
        if len(self.steps) == 1:
            if self.scalar_const:
                # each Delta_q holds |v~|^2 r dim C_q times, DD^* on the odd forms r 2^(n-1)
                r = self.r
                feeds = [(self.lap[q], r * self.fdims[q], q == 0)
                         for q in range(n + 1) if want_dims] \
                    + ([(self.dsv, r * 2 ** (n - 1), False)] if want_index else [])
                for start, lam in self._box_koszul_eigenvalues(N):
                    _feed(feeds, lam, lambda at: start + at)
            else:
                # blocks of one mode, picked 2^16 at a time and then as the union (_pick)
                v, w = self._covector_norms(N), 2 ** (n - 1) * self.r
                at = np.concatenate([a + self._pick(*self._mode_bounds(
                    v[a:a + 2 ** 16], v[a:a + 2 ** 16], w), every) for a in range(0, K, 2 ** 16)]) \
                    if K > 2 ** 16 else np.arange(K)
                keep = at[self._pick(*self._mode_bounds(v[at], v[at], w), every)]
                self._run_blocks(keep[:, None], np.zeros((1, 1), dtype=np.int64))
            return self._finalize()
        grouped, starts, sizes, pos_of = _chains(self.steps[1:], d, N)
        # one mode pick on the dense-size components; the others are always solved
        v = self._covector_norms(N)[grouped]
        dense = sizes * (self.r * max(self.fdims)) <= DENSE_BLOCK_LIMIT
        keep = ~dense
        keep[np.flatnonzero(dense)[self._pick(*self._mode_bounds(
            np.minimum.reduceat(v, starts)[dense], np.maximum.reduceat(v, starts)[dense],
            2 ** (n - 1) * self.r * sizes[dense]), every)]] = True
        del v
        targets = _box_targets(self.steps[1:], d, N)  # once |v~| is freed: a lower peak
        for c in map(int, np.unique(sizes[keep])):
            # the kept components of one size, in label order, as rows
            members = grouped[starts[keep & (sizes == c)][:, None] + np.arange(c)]
            # patterns[k, g, i]: the position that step s_k sends member i of
            # component g to, -1 outside the box
            patterns = pos_of[np.concatenate([members[None], targets[:, members]])]
            for group in _pattern_groups(patterns):
                pattern = patterns[:, group[0]]
                if c * self.r * max(self.fdims) > DENSE_BLOCK_LIMIT:
                    for member in members[group]:
                        self._sparse_component(member, pattern)
                else:
                    self._run_blocks(members[group], pattern)
        return self._finalize()

    def _finalize(self) -> _BoxRun:
        # (kernel, cut, kept, conclusive) of every collector, the Laplacians' first
        ends = [col.finalize(self.tol_rel) for col in self.lap or []] + \
            ([self.dsv.finalize(math.sqrt(self.tol_rel))] if self.dsv else [])
        dims = kernel_modes = None
        if self.lap is not None:
            dims = tuple(kernel for kernel, _, _, _ in ends[:self.n + 1])
            # lap[0] keeps the flat mode of each value from a single-mode block
            agg: dict | None = {}
            for at, mult in self.lap[0].kernel_modes:
                if at is None:
                    agg = None
                    break
                for mode in map(tuple, _decode_modes(at, self.d, self.N).tolist()):
                    agg[mode] = agg.get(mode, 0) + mult
            kernel_modes = None if agg is None else tuple(sorted(agg.items()))
        return _BoxRun(dims, ends[-1][0] if self.dsv else None,
                       min((kept for _, _, kept, _ in ends), default=math.inf),
                       max((cut for _, cut, _, _ in ends), default=0.0),
                       all(ok for _, _, _, ok in ends), kernel_modes)


def _iterative_small_eigs(Lap, k: int, rng) -> tuple[np.ndarray, float, bool]:
    """Smallest eigenvalues of a sparse Hermitian PSD matrix, its largest, and if both converged."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError, eigsh, lobpcg

    Lap = Lap.tocsr()
    dim = Lap.shape[0]
    if dim < max(64, 5 * k):
        vals = np.linalg.eigvalsh(Lap.toarray())
        return vals, float(vals[-1]), True
    k = min(k, dim - 2)
    X = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    try:
        # a fixed start can span an invariant subspace: ones in a graph Laplacian's kernel
        vmax = float(eigsh(Lap, k=1, which="LA", v0=rng.standard_normal(dim), tol=1e-7,
                           return_eigenvectors=False)[0])
    except ArpackError:  # the largest value is not computed, so none counts
        return np.zeros(0), 0.0, False
    diag = Lap.diagonal().real
    diag = np.where(diag > 1e-12 * max(vmax, 1.0), diag, 1.0)
    M = sp.diags(1.0 / diag).tocsr()
    tol = 1e-10 * max(vmax, 1.0)
    vals, vecs = lobpcg(Lap, X, M=M, tol=tol, maxiter=400, largest=False)
    # lobpcg returns its last iterate when maxiter runs out; only residuals
    # within the requested tolerance make the values count as computed
    resid = np.linalg.norm(Lap @ vecs - vecs * vals, axis=0)
    complete = bool(np.all(resid <= tol))
    return np.sort(vals), vmax, complete


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
    check_box(conn.theta.d, box.N, conn)
    engine = _Engine(cs, frame, conn, tol_rel)
    runA = engine.run(box.N, True, True)
    runB = engine.run(box.N + 2, True, False)
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
    check_box(conn.theta.d, box.N, conn)
    engine = _Engine(cs, frame, conn, tol_rel)
    runA = engine.run(box.N, False, True)
    runB = engine.run(box.N + 2, False, True)
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
                      box: TruncationBox, degree: int) -> "scipy.sparse.csr_matrix":
    """Sparse matrix of the degree -> degree+1 operator in the natural basis.

    Basis order: form index slowest, then mode (box lexicographic), then
    fiber.  No metric normalization is applied.
    """
    import scipy.sparse as sp

    n, r, d, N = frame.n, conn.rank, 2 * frame.n, box.N
    if not 0 <= degree < n:
        raise ValueError(f"degree must be in 0..{n - 1}")
    forms = _form_indices(n)
    signs = _wedge_signs(n, forms)
    steps, coef = _connection_data(conn)
    K = mode_count(d, N)
    flat_all = np.arange(K, dtype=np.int64)
    modes = _decode_modes(flat_all, d, N)
    radix = _radix(d, N)
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
            ph = _phases(conn.theta, step, modes[ok])
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


def export_operator_coo(cs: ComplexStructure, frame: AntiholFrame, conn: FreeConnection,
                        box: TruncationBox, degree: int) -> list[tuple[int, int, float, float]]:
    """Coordinate triples (row, col, re, im) of the compressed operator."""
    A = assemble_operator(cs, frame, conn, box, degree).tocoo()
    order = np.lexsort((A.col, A.row))
    return [
        (int(A.row[i]), int(A.col[i]), float(A.data[i].real), float(A.data[i].imag))
        for i in order
    ]
