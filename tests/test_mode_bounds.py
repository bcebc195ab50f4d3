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
                      lambda self, lo, hi, least, most, feeds: np.arange(lo.size))
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
