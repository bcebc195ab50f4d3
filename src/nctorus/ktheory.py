"""K-class bookkeeping and genericity certificates at complex dimension 2.

K0 classes are integer vectors in the even exterior algebra of the rank-4
lattice.  The certificates evaluate the two curvature functionals that
obstruct flat constant-curvature holomorphic structures on non-free
standard modules: the pairing of a decomposable integer 2-form with the
antiholomorphic plane, and the top pairing of that plane wedged with the
noncommutativity bivector.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .algebra import ThetaMatrix
from .complexstruct import AntiholFrame, ComplexStructure


@dataclass(frozen=True)
class K0Class:
    """Component map from even subsets of {1..2n} to integers."""

    n: int
    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, val in self.comps.items():
            key = tuple(sorted(int(x) for x in key))
            if len(key) % 2 != 0:
                raise ValueError(f"component key {key} has odd size")
            if any(not 1 <= x <= 2 * self.n for x in key) or len(set(key)) != len(key):
                raise ValueError(f"component key {key} is not a subset of 1..{2 * self.n}")
            if int(val) != 0:
                clean[key] = clean.get(key, 0) + int(val)
        object.__setattr__(self, "comps", clean)

    def __add__(self, other: "K0Class") -> "K0Class":
        if self.n != other.n:
            raise ValueError("classes live on lattices of different rank")
        merged = dict(self.comps)
        for k, v in other.comps.items():
            merged[k] = merged.get(k, 0) + v
        return K0Class(self.n, merged)

    @classmethod
    def free(cls, n: int, rank: int) -> "K0Class":
        return cls(n, {(): rank})


def chern_top(k: K0Class) -> int:
    """Component on the full index set; zero when absent."""
    return int(k.comps.get(tuple(range(1, 2 * k.n + 1)), 0))


@dataclass(frozen=True)
class Decomposable2Form:
    """The wedge alpha ^ beta of two independent integer covectors."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        a = np.array(self.alpha, dtype=np.int64)
        b = np.array(self.beta, dtype=np.int64)
        if a.shape != b.shape:
            raise ValueError("alpha and beta must have the same length")
        outer = np.outer(a, b)
        if np.max(np.abs(outer - outer.T)) == 0 and (a != 0).any() and (b != 0).any():
            # proportional integer vectors give a symmetric outer product
            raise ValueError("alpha and beta must be linearly independent")
        object.__setattr__(self, "alpha", tuple(int(x) for x in a))
        object.__setattr__(self, "beta", tuple(int(x) for x in b))


def _plucker(frame: AntiholFrame) -> dict[tuple[int, int], complex]:
    W = frame.W
    return {
        (j, k): W[0, j] * W[1, k] - W[0, k] * W[1, j]
        for j, k in itertools.combinations(range(4), 2)
    }


def curvature_functional(frame: AntiholFrame, theta: ThetaMatrix, mu) -> complex:
    """Pair mu with the antiholomorphic plane (n = 2 only).

    mu = "top" evaluates the determinant pairing of the plane wedged
    with the Theta bivector; a Decomposable2Form evaluates the 2 x 2
    determinant of its covectors against the two frame rows.
    """
    if frame.n != 2:
        raise ValueError("curvature functionals are defined at complex dimension 2")
    if isinstance(mu, str):
        if mu != "top":
            raise ValueError(f"unknown functional {mu!r}")
        if theta.d != 4:
            raise ValueError("theta must be 4 x 4")
        P = _plucker(frame)
        T = theta.entries
        return (
            P[(0, 1)] * T[2, 3] - P[(0, 2)] * T[1, 3] + P[(0, 3)] * T[1, 2]
            + P[(1, 2)] * T[0, 3] - P[(1, 3)] * T[0, 2] + P[(2, 3)] * T[0, 1]
        )
    a = np.array(mu.alpha, dtype=float)
    b = np.array(mu.beta, dtype=float)
    u = frame.W @ a
    v = frame.W @ b
    return complex(u[0] * v[1] - u[1] * v[0])


@dataclass(frozen=True)
class NonAlgCertificate:
    bound: int
    tol: float
    vanishing_pairs: tuple
    top_value: complex
    certified: bool

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "tol": self.tol,
            "vanishing_pairs": [
                {"alpha": list(a), "beta": list(b), "abs_value": v}
                for a, b, v in self.vanishing_pairs
            ],
            "top_value": {"re": self.top_value.real, "im": self.top_value.imag},
            "certified": self.certified,
        }


@functools.lru_cache(maxsize=8)
def _primitive_lex_positive(B: int, dim: int = 4) -> np.ndarray:
    """All primitive integer vectors with sup norm <= B, first nonzero > 0.

    Built once per (B, dim) and shared by every caller, so read-only.
    """
    rng = np.arange(-B, B + 1)
    grid = np.stack(np.meshgrid(*([rng] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    g = np.zeros(grid.shape[0], dtype=np.int64)
    for k in range(dim):
        g = np.gcd(g, np.abs(grid[:, k]))
    keep = g == 1
    grid = grid[keep]
    lead = np.zeros(grid.shape[0], dtype=np.int64)
    undecided = np.ones(grid.shape[0], dtype=bool)
    for k in range(dim):
        newly = undecided & (grid[:, k] != 0)
        lead[newly] = grid[newly, k]
        undecided &= ~newly
    out = grid[lead > 0]
    out.setflags(write=False)
    return out


def nonalg_certificate(cs: ComplexStructure, theta: ThetaMatrix, bound: int = 5,
                       tol: float | None = None) -> NonAlgCertificate:
    """Bounded genericity certificate at complex dimension 2.

    Enumerates primitive integer covector pairs (alpha, beta) with sup
    norm <= bound (one pair per unordered projective pair) and reports
    those whose decomposable functional vanishes within tol, together
    with the top functional.  Certified means: no vanishing pair inside
    the bound and a nonzero top value.  The verdict is relative to the
    stated bound; nothing is claimed beyond it.

    The pair scan maps each covector to the projective point of its
    frame pairing; a vanishing pair is a near collision of projective
    points, found with a KD-tree on the sphere rather than by testing
    all pairs.
    """
    from .complexstruct import antihol_frame

    if cs.n != 2 or theta.d != 4:
        raise ValueError("certificates are defined at complex dimension 2")
    frame = antihol_frame(cs)
    W = frame.W
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(W)))) ** 2

    vecs = _primitive_lex_positive(bound)
    U = vecs @ W.T  # row alpha -> (alpha . dbar_1, alpha . dbar_2)
    norms = np.linalg.norm(U, axis=1)

    vanishing: set[tuple] = set()

    def cross_all(i: int) -> np.ndarray:
        return np.abs(U[i, 0] * U[:, 1] - U[i, 1] * U[:, 0])

    def record(i: int, j: int, value: float) -> None:
        a, b = vecs[i], vecs[j]
        pa, pb = tuple(int(x) for x in a), tuple(int(x) for x in b)
        if pa == pb:
            return
        if pb < pa:
            pa, pb = pb, pa
        vanishing.add((pa, pb, float(value)))

    tiny_cut = max(1e-3, 20.0 * math.sqrt(tol))
    tiny = np.nonzero(norms <= tiny_cut)[0]
    normal = np.nonzero(norms > tiny_cut)[0]
    for i in tiny:
        vals = cross_all(i)
        hits = np.nonzero(vals < tol)[0]
        for j in hits:
            record(int(i), int(j), float(vals[j]))

    if normal.size >= 2:
        Un = U[normal]
        nn = norms[normal]
        x, y = Un[:, 0], Un[:, 1]
        hopf = np.stack(
            [
                2.0 * (x.conj() * y).real,
                2.0 * (x.conj() * y).imag,
                np.abs(x) ** 2 - np.abs(y) ** 2,
            ],
            axis=1,
        ) / (nn[:, None] ** 2)
        radius = 2.0 * tol / (tiny_cut * tiny_cut) * 1.01
        tree = cKDTree(hopf, balanced_tree=False)
        pairs = tree.query_pairs(r=radius, output_type="ndarray")
        i, j = normal[pairs[:, 0]], normal[pairs[:, 1]]
        vals = np.abs(U[i, 0] * U[j, 1] - U[i, 1] * U[j, 0])
        for p in np.nonzero(vals < tol)[0]:
            record(int(i[p]), int(j[p]), float(vals[p]))

    top = curvature_functional(frame, theta, "top")
    certified = not vanishing and abs(top) > tol
    ordered = tuple(sorted(vanishing))
    return NonAlgCertificate(bound, float(tol), ordered, complex(top), certified)
