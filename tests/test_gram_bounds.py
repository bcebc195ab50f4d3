"""Bounds on the Grams of the Hodge-rank path, read off their factors."""

import numpy as np
import pytest

from nctorus import dolbeault as dlb

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

# nonzero parts kept clear of underflow, where relative rounding bounds stop holding
PART = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def factors(draw):
    """A batch of g sparse complex p x m or m x p factors that share their nonzero positions."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    mask = draw(arrays(bool, shape))
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    rows, cols = np.nonzero(mask)
    g = draw(st.integers(1, 8))
    parts = draw(arrays(float, (2, g, rows.size), elements=PART))
    return dlb._Sparse(rows, cols, shape, parts[0] + 1j * parts[1])


def one_entry(z):
    return dlb._Sparse(np.array([0]), np.array([0]), (1, 1), np.array([[z]]))


def gram_discs(G):
    """Per block: Gershgorin's lo and hi, and the smallest and largest diagonal entry."""
    diag = np.diagonal(G, axis1=1, axis2=2).real
    rows = np.abs(G).sum(axis=2)
    return (np.min(2 * diag - rows, axis=1), rows.max(axis=1), diag.min(axis=1), diag.max(axis=1))


# |1.1 + 0.7i|^2 rounds one ulp below 1.1^2 + 0.7^2, the Gram's entry, so the
# factor's diagonal needs its slack; entries of size 10 make |A|^T (|A| 1)
# exceed the row sums of |A| many times over
@example(one_entry(1.1 + 0.7j))
@example(dlb._Sparse(np.array([0, 1, 1]), np.array([0, 0, 1]), (2, 2),
                     np.array([[10.0 + 3j, -7.5 + 9j, 8.0 - 10j]])))
@given(factors())
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
def test_factor_bounds_contain_the_formed_grams_discs(A):
    g = len(A)
    lo, hi, least, most = dlb._spectral_bounds(*dlb._gram_bounds(A))
    G = dlb._gram(A, np.arange(g)).dense()
    assert G.shape == (g,) + (min(A.shape),) * 2
    # the discs and diagonals of the formed Grams, and their eigenvalues
    glo, ghi, gleast, gmost = gram_discs(G)
    assert np.all(lo <= glo) and np.all(hi >= ghi)
    assert np.all(least >= gleast) and np.all(most <= gmost)
    vals = np.linalg.eigvalsh(G)
    assert np.all(lo <= vals[:, 0]) and np.all(vals[:, -1] <= hi)
    assert np.all(vals[:, 0] <= least) and np.all(vals[:, -1] >= most)


@pytest.mark.parametrize("g", [1, 40])
def test_sum_by_groups_by_key_either_way(g):
    # one batch column takes reduceat (the 0/1 matrix would outsize the
    # values), forty take the product; key 3 has no entry and sums to 0
    rng = np.random.default_rng(5)
    keys = np.array([4, 0, 2, 0, 4, 1, 4])
    values = rng.random((keys.size, g))
    want = np.zeros((6, g))
    np.add.at(want, keys, values)
    got = dlb._sum_by(values, keys, 6)
    assert got.shape == (6, g)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert not got[3].any() and not got[5].any()
