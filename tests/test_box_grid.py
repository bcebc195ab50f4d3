"""The coupling graph, one step's chains and |v~| read off the box's grid shape,
against the decode-based build."""

import functools

import numpy as np
import pytest

import nctorus.dolbeault as dlb
from nctorus.algebra import ThetaMatrix
from nctorus.complexstruct import antihol_frame, random_complex_structure

from _oracles import box_graph_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

THETAS = {1: [0.31], 2: [0.31, 0.47], 3: [0.31, 0.47, 0.23]}


@functools.lru_cache(maxsize=None)
def shifted_engine(n: int, seed: int) -> dlb._Engine:
    """An engine with v0 != 0: the scalar shift c_j of a random complex structure."""
    rng = np.random.default_rng(seed)
    cs = random_complex_structure(n, rng)
    theta = ThetaMatrix.product(THETAS[n])
    shifts = rng.normal(size=n) + 1j * rng.normal(size=n)
    return dlb._Engine(cs, antihol_frame(cs), dlb.FreeConnection.scalar_shift(theta, shifts), 1e-8)


@st.composite
def boxes(draw, max_steps=3):
    """(n, N, seed, steps): steps may be negative, move several axes or leave the box."""
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(0, 3))
    reach = 2 * N + 2
    step = st.lists(st.integers(-reach, reach), min_size=2 * n, max_size=2 * n)
    steps = draw(st.lists(step.filter(any).map(tuple), min_size=1, max_size=max_steps,
                          unique=True))
    return n, N, draw(st.integers(0, 3)), steps


@example((3, 0, 0, [(1, 0, 0, 0, 0, 0)]))  # the side = 1 box: every step leaves it
@example((2, 3, 1, [(1, 0, 0, 0), (0, -1, 1, 0), (8, 0, 0, 0)]))
@example((3, 2, 2, [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)]))
@given(boxes())
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
def test_grid_build_matches_the_decoded_box(spec):
    n, N, seed, steps = spec
    d, K = 2 * n, dlb.mode_count(2 * n, N)
    engine = shifted_engine(n, seed)
    ref_targets, ref_v, ref_labels = box_graph_reference(steps, engine.U, engine.v0, N)
    targets = dlb._box_targets(steps, d, N)
    assert targets.dtype == np.int32 and np.array_equal(targets, ref_targets)
    # the edges as run hands them to _components, int32 as they are
    ok = targets >= 0
    labels = dlb._components(K, np.broadcast_to(np.arange(K, dtype=np.int32), ok.shape)[ok],
                             targets[ok])
    assert np.array_equal(labels, ref_labels)
    # |v~| agrees within the rounding that _mode_bounds allows it, gamma_{2d+3}
    # sigma each way, sigma = ||v0|| + N sum_k ||U[k]||; not bitwise
    sigma = np.linalg.norm(engine.v0) + N * np.linalg.norm(engine.U, axis=1).sum()
    gamma = (2 * d + 3) * dlb._EPS / (1 - (2 * d + 3) * dlb._EPS)
    v = engine._covector_norms(N)
    assert v.shape == (K,)
    assert np.all(np.abs(v - ref_v) <= 2 * gamma * sigma)


@example((2, 2, 0, [(0, 0, 1, -1)]))  # a negative flat offset: flat order runs against s
@example((2, 2, 1, [(1, 1, 0, 0)]))  # a step that moves two axes
@example((2, 1, 2, [(0, 4, 0, -1)]))  # a step longer than the box side
@example((1, 1, 3, [(3, -1)]))  # longer than the side, with flat offset 0
@example((3, 0, 0, [(0, 0, 0, 0, -1, 0)]))  # the side = 1 box
@given(boxes(max_steps=1))
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
def test_one_step_chains_match_scipy_labels(spec):
    # the layout _chains reads off the grid against the one _group gives
    # scipy's labels: modes by label, then flat index, each at its rank
    n, N, seed, steps = spec
    engine = shifted_engine(n, seed)
    _, _, labels = box_graph_reference(steps, engine.U, engine.v0, N)
    K = labels.size
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    pos_of = np.full(K + 1, -1)
    pos_of[order] = np.arange(K) - np.repeat(starts, sizes)
    got = dlb._chains(steps, 2 * n, N)
    for array, want in zip(got, (order, starts, sizes, pos_of)):
        assert array.dtype == np.int32 and np.array_equal(array, want)


def test_covector_norms_stay_within_eta_at_a_lattice_kernel():
    # c = -2 pi i W m0 puts |v~(m0)| = 0, where the slab product's rounding
    # is largest against |v~|: eta covers it.  On 13 of the 40 seeds the norm
    # at m0 exceeds 2 gamma_{2d+3} sigma, the largest being 0.014 eta
    n, N, d = 2, 2, 4
    gamma = (2 * d + 3) * dlb._EPS / (1 - (2 * d + 3) * dlb._EPS)
    beyond = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        cs = random_complex_structure(n, rng)
        frame = antihol_frame(cs)
        m0 = rng.integers(-N, N + 1, d)
        conn = dlb.FreeConnection.scalar_shift(ThetaMatrix.product(THETAS[n]),
                                               -2j * np.pi * (frame.W @ m0))
        engine = dlb._Engine(cs, frame, conn, 1e-8)
        engine.run(N, False, True)  # sets eta for the box
        _, ref_v, _ = box_graph_reference([], engine.U, engine.v0, N)
        sigma = np.linalg.norm(engine.v0) + N * np.linalg.norm(engine.U, axis=1).sum()
        v = engine._covector_norms(N)
        assert np.all(np.abs(v - ref_v) <= engine.eta + 2 * gamma * sigma)
        at = int((m0 + N) @ dlb._radix(d, N))
        assert ref_v[at] < 1e-12 * sigma
        beyond += v[at] > 2 * gamma * sigma
    assert beyond > 0
