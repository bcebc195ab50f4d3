"""Bounds on the spectra of dense blocks, read off the Koszul covectors of their modes."""

import numpy as np
import pytest

from nctorus import dolbeault as dlb
from nctorus.algebra import FourierElement, MatrixElement, ThetaMatrix
from nctorus.complexstruct import antihol_frame, random_complex_structure

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

THETAS = {2: ThetaMatrix.product([0.31, 0.47]), 3: ThetaMatrix.product([0.31, 0.47, 0.23])}
# coefficient parts, exact zeros included so that fibers can be diagonal or scalar
PART = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))


@st.composite
def connections(draw):
    """(n, N, seed, rank, constant part, [(step, coefficients)]): no flatness asked."""
    n = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 2 if n == 2 else 1))
    r = draw(st.integers(1, 2))
    shape = (n, r, r, 2)
    step = arrays(int, 2 * n, elements=st.integers(-1, 1)).filter(lambda s: s.any())
    steps = draw(st.lists(st.tuples(step, arrays(float, shape, elements=PART)), max_size=2))
    return n, N, draw(st.integers(0, 99)), r, draw(arrays(float, shape, elements=PART)), steps


def build(n, r, const, steps):
    theta = THETAS[n]
    coeffs = [[[{} for _ in range(r)] for _ in range(r)] for _ in range(n)]
    for m, c in [((0,) * 2 * n, const)] + [(tuple(int(x) for x in s), c) for s, c in steps]:
        for j, i2, i1 in np.ndindex(n, r, r):
            at = coeffs[j][i2][i1]
            at[m] = at.get(m, 0) + complex(*c[j, i2, i1])
    return dlb.FreeConnection(r, [MatrixElement(theta, [[FourierElement(theta, coeffs[j][i2][i1])
                                                          for i1 in range(r)] for i2 in range(r)])
                                  for j in range(n)])


def unit(n, k):
    return np.eye(2 * n, dtype=int)[k]


# uncoupled with a non-scalar fiber, every mode a block of its own; a non-flat
# n = 3 connection coupling two axes, whose DD^* holds the defect blocks
@example((2, 2, 3, 2, np.array([[[[0, 0], [0, 0]], [[0, 0], [0.4, 0.2]]],
                                [[[0, 0], [0, 0]], [[0, 0], [-0.1, 0.5]]]]), []))
@example((3, 1, 33, 1, np.zeros((3, 1, 1, 2)),
          [(unit(3, 0), np.full((3, 1, 1, 2), 0.6)), (unit(3, 2), np.full((3, 1, 1, 2), -0.4))]))
@given(connections())
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
def test_mode_bounds_contain_every_block_spectrum(spec):
    # every block assembled, and each matrix of _spectra, every Delta_q and
    # DD^*, checked against the bounds of the box's one mode pick; the pick
    # bounds the dense-size components in label order, that is in order of
    # their least flat mode, which is the first member of each assembled block
    n, N, seed, r, const, steps = spec
    cs = random_complex_structure(n, np.random.default_rng(seed))
    engine = dlb._Engine(cs, antihol_frame(cs), build(n, r, const, steps), 1e-8)
    assume(not engine.scalar_const or len(engine.steps) > 1)
    bounds, spectra = [], []
    mode_bounds, degree_operators = dlb._Engine._mode_bounds, dlb._Engine._degree_operators

    def bound(self, *args):
        bounds.append(mode_bounds(self, *args))
        return bounds[-1]

    def record(self, mvec, pattern):
        ops = degree_operators(self, mvec, pattern)
        first = (mvec[:, 0] + self.N) @ dlb._radix(self.d, self.N)
        for terms, _ in self._spectra(ops):
            vals = np.linalg.eigvalsh(dlb._product(terms).dense())
            spectra.append((first, vals))
        return ops

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dlb._Engine, "_mode_bounds", bound)
        patch.setattr(dlb._Engine, "_degree_operators", record)
        patch.setattr(dlb._Engine, "_pick",
                      lambda self, lo, hi, least, most, feeds, dense=None: np.arange(lo.size))
        engine.run(N, True, True)
    assert len(bounds) == 1
    lo, hi, least, most = bounds[0]
    # every block kept: one least mode per dense-size component, each with Delta_0,
    # ..., Delta_n and, at n = 3, the odd block matrix
    firsts = np.unique(np.concatenate([first for first, _ in spectra]))
    assert firsts.size == lo.size
    assert sum(len(first) for first, _ in spectra) == lo.size * (n + 1 + (n > 2))
    for first, vals in spectra:
        b = np.searchsorted(firsts, first)
        assert np.all(vals >= lo[b, None]) and np.all(vals <= hi[b, None])
        assert np.all(vals[:, 0] <= least[b]) and np.all(vals[:, -1] >= most[b])


@pytest.mark.parametrize("n, N, m0, tol_rel", [
    (2, 2, None, 1e-8),  # 625 modes: one round
    (2, 8, None, 1e-8),  # 17^4 = 83,521 modes: two chunks and their union
    (2, 10, (2, -1, 0, 3), 1e-8),
    (3, 3, None, 1e-8),
    (3, 3, (1, 0, -1, 0, 2, 0), 1e-5),
    (1, 200, (5, -3), 1e-8),
])
def test_single_mode_pick_in_rounds_is_the_box_pick(monkeypatch, n, N, m0, tol_rel):
    # constant fibres a_j = diag(c_j, c_j + d_j) and no step make every mode a
    # block of one width: run picks them 2^16 at a time, then the union of
    # those picks, and keeps what _pick keeps from the four bounds of every
    # mode at once, on the box's fresh collectors
    cs = random_complex_structure(n, np.random.default_rng(7))
    frame, theta = antihol_frame(cs), THETAS.get(n, ThetaMatrix.product([0.31]))
    c = np.zeros(n) if m0 is None else -2j * np.pi * (frame.W @ np.array(m0))
    d = np.array([0.37 + 0.21j, -0.13 + 0.52j, 0.29 - 0.17j])[:n]
    conn = dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, np.diag([cj, cj + dj]))
                                  for cj, dj in zip(c, d)])
    engine = dlb._Engine(cs, frame, conn, tol_rel)
    picks, bounds = [], []
    run_blocks, mode_bounds = dlb._Engine._run_blocks, dlb._Engine._mode_bounds

    def spy(self, members, pattern):
        v = self._covector_norms(self.N)
        every = [(col, 1, False) for col in self.lap + [self.dsv]]
        assert all(col.vmax == 0 and col.above == np.inf and not col.kept for col, _, _ in every)
        picks.append((members[:, 0], self._pick(*mode_bounds(self, v, v, 2 ** (n - 1) * 2),
                                                every)))
        return run_blocks(self, members, pattern)

    def count(self, *args):
        bounds.append(args[0].size)
        return mode_bounds(self, *args)

    monkeypatch.setattr(dlb._Engine, "_run_blocks", spy)
    monkeypatch.setattr(dlb._Engine, "_mode_bounds", count)
    engine.run(N, True, True)
    K = dlb.mode_count(2 * n, N)
    (got, want), = picks
    assert np.array_equal(got, want) and 0 < got.size < K
    # past 2^16 modes, 2^16 at a time and then the union, never the whole box
    chunks = [] if K <= 2 ** 16 else [min(2 ** 16, K - a) for a in range(0, K, 2 ** 16)]
    assert bounds[:-1] == chunks and (bounds[-1] == K if not chunks else bounds[-1] < K)
