"""Complex structures on the tangent space of a noncommutative torus.

A complex structure is a real 2n x 2n matrix J with J^2 = -1 acting on
the span of the gauge derivations delta_1..delta_2n.  Its -i eigenspace
is the antiholomorphic tangent space; frames for it, period matrices for
the +i side, and J-invariant metrics are constructed here.  Eigenspaces
are numerical null spaces taken from numpy's SVD (scipy.linalg.null_space's
rule), so this module loads no scipy.

Conventions used everywhere in this package:

* antiholomorphic = -i eigenspace of J, holomorphic = +i eigenspace;
* a period matrix Q is a complex-linear identification of the tangent
  space with C^n, i.e. Q J = i Q, so the lattice is Q Z^{2n};
* frames and period matrices are pivot-normalized (the selected column
  block is the identity) so identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RCOND_MIN = 1e-12


class ConditioningError(ValueError):
    """An eigenspace or stacked system is too ill-conditioned to trust."""


class DegenerateLatticeError(ConditioningError):
    """The rows of Q together with their conjugates do not span C^{2n}."""


@dataclass(frozen=True)
class ComplexStructure:
    """Endomorphism J of the tangent space with J^2 = -1 (within tol)."""

    n: int
    J: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        J = np.array(self.J, dtype=float)
        if J.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"J must be {2 * self.n} x {2 * self.n}")
        resid = np.max(np.abs(J @ J + np.eye(2 * self.n)))
        if resid > self.tol:
            raise ValueError(f"J^2 + 1 has max residue {resid:.3e} > tol {self.tol:.1e}")
        J.setflags(write=False)
        object.__setattr__(self, "J", J)

    @classmethod
    def from_matrix(cls, J, tol: float = 1e-10) -> "ComplexStructure":
        J = np.asarray(J, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2 != 0:
            raise ValueError("J must be square of even size")
        return cls(J.shape[0] // 2, J, tol)


@dataclass(frozen=True)
class AntiholFrame:
    """Rows give the antiholomorphic frame: dbar_j = sum_k W[j,k] delta_k."""

    W: np.ndarray
    pivots: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class PeriodMatrix:
    """Columns are the lattice generators in holomorphic coordinates."""

    Q: np.ndarray


@dataclass(frozen=True)
class MetricG:
    """Real symmetric positive-definite J-invariant metric on the tangent space."""

    G: np.ndarray


def standard_j(n: int) -> np.ndarray:
    """J0 with delta_j -> delta_{n+j} and delta_{n+j} -> -delta_j."""
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def conjugated_standard_j(S) -> np.ndarray:
    """S J0 S^{-1}; squares to -1 for any invertible S."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    return S @ standard_j(n) @ np.linalg.inv(S)


def random_complex_structure(n: int, rng: np.random.Generator, spread: float = 0.4) -> ComplexStructure:
    """A generic valid complex structure drawn from a seeded generator."""
    while True:
        S = np.eye(2 * n) + spread * rng.standard_normal((2 * n, 2 * n))
        if abs(np.linalg.det(S)) > 0.1:
            return ComplexStructure(n, conjugated_standard_j(S), tol=1e-8)


def _pivot_normalize(W0: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan with greedy column pivoting by largest remaining norm.

    Returns (W, pivots) with W[i, pivots[i]] = 1 and zeros elsewhere in the
    pivot columns.  Deterministic: ties break at the lowest column index.
    """
    W = np.array(W0, dtype=complex)
    n, width = W.shape
    pivots: list[int] = []
    scale = max(np.max(np.abs(W)), 1.0)
    for i in range(n):
        norms = np.linalg.norm(W[i:, :], axis=0)
        norms[list(pivots)] = -1.0
        col = int(np.argmax(norms))
        if norms[col] < RCOND_MIN * scale:
            raise ConditioningError("numerically rank-deficient eigenspace")
        row = i + int(np.argmax(np.abs(W[i:, col])))
        if row != i:
            W[[i, row]] = W[[row, i]]
        W[i] = W[i] / W[i, col]
        for t in range(n):
            if t != i:
                W[t] = W[t] - W[t, col] * W[i]
        pivots.append(col)
    return W, tuple(pivots)


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of A.

    The rule of scipy.linalg.null_space with rcond 1e-9: the right singular
    vectors past the count of singular values above 1e-9 times the largest.
    """
    _, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-9 * np.max(s, initial=0.0)))
    return vh[rank:].conj().T


def antihol_frame(cs: ComplexStructure) -> AntiholFrame:
    """Pivot-normalized frame of the -i eigenspace of J.

    Rows w satisfy w J^T = -i w, i.e. the row vectors are -i eigenvectors
    of J acting on the tangent space.
    """
    n = cs.n
    basis = _null_space(cs.J + 1j * np.eye(2 * n))
    if basis.shape[1] != n:
        raise ConditioningError(
            f"-i eigenspace has numerical dimension {basis.shape[1]}, expected {n}"
        )
    W, pivots = _pivot_normalize(basis.T)
    resid = np.max(np.abs(W @ cs.J.T + 1j * W))
    if resid > 1e-10:
        raise ConditioningError(f"eigenframe residue {resid:.3e} exceeds 1e-10")
    W.setflags(write=False)
    return AntiholFrame(W, pivots)


def block_adapted_frame(cs: ComplexStructure, block_size: int = 2) -> AntiholFrame:
    """Frame for block-diagonal J with the leading-block row first.

    Rows of the normalized frame of a block-diagonal J are supported on
    single blocks; this reorders them so row 1 is the one living on the
    leading coordinates.
    """
    frame = antihol_frame(cs)
    W = np.array(frame.W)
    lead = np.linalg.norm(W[:, :block_size], axis=1)
    rest = np.linalg.norm(W[:, block_size:], axis=1)
    candidates = [i for i in range(cs.n) if rest[i] <= 1e-9 * max(lead[i], 1.0)]
    if not candidates:
        raise ValueError("no frame row is supported on the leading block; J does not split")
    order = [candidates[0]] + [i for i in range(cs.n) if i != candidates[0]]
    W = W[order]
    W.setflags(write=False)
    return AntiholFrame(W, tuple(frame.pivots[i] for i in order))


def period_from_j(cs: ComplexStructure) -> PeriodMatrix:
    """Pivot-normalized Q with Q J = i Q and full rank."""
    n = cs.n
    basis = _null_space(cs.J.T - 1j * np.eye(2 * n))
    if basis.shape[1] != n:
        raise ConditioningError(
            f"+i eigenspace has numerical dimension {basis.shape[1]}, expected {n}"
        )
    Q, _ = _pivot_normalize(basis.T)
    resid = np.max(np.abs(Q @ cs.J - 1j * Q))
    if resid > 1e-10:
        raise ConditioningError(f"period residue {resid:.3e} exceeds 1e-10")
    Q.setflags(write=False)
    return PeriodMatrix(Q)


def j_from_period(pm: PeriodMatrix) -> ComplexStructure:
    """The real J with Q J = i Q, pulled back through the stacked system."""
    Q = np.asarray(pm.Q, dtype=complex)
    n, width = Q.shape
    if width != 2 * n:
        raise ValueError("period matrix must be n x 2n")
    P = np.vstack([Q, Q.conj()])
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or 1.0 / cond < RCOND_MIN:
        raise DegenerateLatticeError(
            f"stacked period matrix is singular (cond {cond:.3e})"
        )
    D = np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))
    J = np.linalg.solve(P, D @ P)
    imag_res = np.max(np.abs(J.imag))
    if imag_res > 1e-10:
        raise ConditioningError(f"recovered J has imaginary residue {imag_res:.3e}")
    Jr = J.real
    if np.max(np.abs(Jr @ Jr + np.eye(2 * n))) > 1e-9:
        raise ConditioningError("recovered J fails J^2 = -1 at 1e-9")
    return ComplexStructure(n, Jr, tol=1e-9)


def j_from_tau(tau: complex) -> ComplexStructure:
    """Complex dimension 1: the structure of the lattice Z + tau Z."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return j_from_period(PeriodMatrix(np.array([[1.0, tau]], dtype=complex)))


def invariant_metric(cs: ComplexStructure, G0=None) -> MetricG:
    """Average G0 with its J-pullback: G = (G0 + J^T G0 J) / 2."""
    m = 2 * cs.n
    if G0 is None:
        G0 = np.eye(m)  # symmetric positive definite as built, so left unchecked
    else:
        G0 = np.asarray(G0, dtype=float)
        if G0.shape != (m, m) or np.max(np.abs(G0 - G0.T)) > 1e-12:
            raise ValueError("G0 must be symmetric of the right size")
        if np.min(np.linalg.eigvalsh(G0)) <= 0:
            raise ValueError("G0 must be positive definite")
    G = 0.5 * (G0 + cs.J.T @ G0 @ cs.J)
    G = 0.5 * (G + G.T)
    G.setflags(write=False)
    return MetricG(G)
