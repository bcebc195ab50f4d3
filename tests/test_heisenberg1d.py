import math

import numpy as np
import pytest

from nctorus.heisenberg1d import (
    StandardModule1D,
    hermite_dbar_matrix,
    ladder_coefficients,
    standard_module_cohomology,
)

from _oracles import hermite_functions


def test_validation():
    with pytest.raises(ValueError):
        StandardModule1D(q=0)
    with pytest.raises(ValueError):
        StandardModule1D(q=1, tau=1.0 - 1j)
    with pytest.raises(ValueError):
        StandardModule1D(q=1, M=4)


def test_matrix_bidiagonal_and_growth():
    sm = StandardModule1D(q=1, tau=0.5 + 1.5j, M=64)
    D = hermite_dbar_matrix(sm)
    nz = np.argwhere(np.abs(D) > 0)
    assert np.max(np.abs(nz[:, 0] - nz[:, 1])) == 1
    # ladder entries grow like sqrt of the basis index
    alpha, beta = ladder_coefficients(sm)
    for k in (5, 17, 40):
        assert abs(D[k - 1, k]) == pytest.approx(abs(alpha) * math.sqrt(k), rel=1e-12)
        assert abs(D[k + 1, k]) == pytest.approx(abs(beta) * math.sqrt(k + 1), rel=1e-12)


def test_adjoint_is_conjugate_transpose():
    sm = StandardModule1D(q=2, tau=0.3 + 0.9j, M=48)
    alpha, beta = ladder_coefficients(sm)
    D = hermite_dbar_matrix(sm)
    adj = hermite_dbar_matrix(
        StandardModule1D(q=sm.q, tau=sm.tau, M=sm.M)
    ).conj().T
    # the adjoint ladder swaps and conjugates the coefficients
    from nctorus.heisenberg1d import _copies, _single_copy

    Dstar = _copies(_single_copy(np.conj(beta), np.conj(alpha), sm.M, sm.M), abs(sm.q))
    assert np.max(np.abs(Dstar - adj)) < 1e-12


def test_square_truncation_at_tau_i_is_annihilation():
    # at tau = i, q > 0, the rescaled operator is a pure lowering ladder
    sm = StandardModule1D(q=1, tau=1j, M=32)
    alpha, beta = ladder_coefficients(sm)
    assert abs(beta) < 1e-12
    assert abs(abs(alpha) - math.sqrt(2.0 * math.pi) * math.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("q,expect", [(1, (1, 0, 1)), (3, (3, 0, 3)), (-2, (0, 2, -2))])
def test_cohomology_basic(q, expect):
    rep = standard_module_cohomology(StandardModule1D(q=q, tau=1j, M=200))
    assert (rep.dims[0], rep.dims[1], rep.index) == expect
    assert rep.stable and rep.conclusive


@pytest.mark.parametrize("tau", [1j, 1 + 1j, 0.3 + 2j])
@pytest.mark.parametrize("q", [-4, -1, 1, 2, 4])
def test_index_equals_degree(q, tau):
    rep = standard_module_cohomology(StandardModule1D(q=q, tau=tau, M=128))
    assert rep.index == q
    assert rep.dims[0] == max(q, 0) and rep.dims[1] == max(-q, 0)
    assert rep.dims[0] == 0 or rep.dims[1] == 0


def test_stability_m_vs_2m():
    sm = StandardModule1D(q=2, tau=0.7 + 1.2j, M=96)
    a = standard_module_cohomology(sm)
    b = standard_module_cohomology(StandardModule1D(q=2, tau=0.7 + 1.2j, M=192))
    assert a.dims == b.dims
    assert a.stable


def test_kernel_vector_is_gaussian():
    # the numerically found kernel matches the analytic squeezed Gaussian
    sm = StandardModule1D(q=1, tau=0.4 + 1.1j, M=160)
    from nctorus.heisenberg1d import _single_copy

    alpha, beta = ladder_coefficients(sm)
    D = _single_copy(alpha, beta, sm.M + 1, sm.M)
    _, sv, vh = np.linalg.svd(D)
    v = vh.conj()[-1]
    grid = np.linspace(-2.5, 2.5, 41)
    H = hermite_functions(grid, sm.M)
    values = v @ H
    # analytic kernel exp(-c u^2 / 2) with c = i * sign(q) * conj(tau / |tau|)
    c = 1j * np.sign(sm.q) * np.conj(sm.tau / abs(sm.tau))
    target = np.exp(-0.5 * c * grid ** 2)
    ratio = values / target
    ratio = ratio / ratio[len(grid) // 2]
    assert np.max(np.abs(ratio - 1.0)) < 1e-6


def test_rank_parameter_only_reports():
    a = standard_module_cohomology(StandardModule1D(q=2, p=1, tau=1j, M=96))
    b = standard_module_cohomology(StandardModule1D(q=2, p=5, tau=1j, M=96))
    assert a.dims == b.dims and a.index == b.index


@pytest.mark.parametrize("M", [24, 25, 60, 61])
@pytest.mark.parametrize("q, tau, expect", [
    (2, 0.3 + 0.9j, [2, 0]),
    (-3, -0.4 + 1.3j, [0, 3]),
    (1, 1.5 + 0.35j, [0, 0]),  # kernel decays too slowly for these M
])
def test_kernel_count_matches_dense_svd(q, tau, expect, M):
    # the even/odd tridiagonal split against singular values of the full
    # (M+1) x M rectangle, for the operator and for its adjoint ladder
    from nctorus.heisenberg1d import _kernel_count, _single_copy

    alpha, beta = ladder_coefficients(StandardModule1D(q=q, tau=tau, M=M))
    tol_rel, copies, counts = 1e-8, abs(q), []
    for a, b in ((alpha, beta), (np.conj(beta), np.conj(alpha))):
        count, cut, kept, resolved = _kernel_count(a, b, M, copies, tol_rel)
        sv = np.linalg.svd(_single_copy(a, b, M + 1, M), compute_uv=False)
        thresh = tol_rel * sv[0]
        assert count == copies * np.count_nonzero(sv < thresh)
        # eigenvalues of the normal matrix are exact to a few ulps of its norm
        slack = 64 * np.finfo(float).eps * sv[0] ** 2
        assert abs(kept ** 2 - sv[sv >= thresh].min() ** 2) <= slack
        assert abs(cut ** 2 - max(sv[sv < thresh], default=0.0) ** 2) <= slack
        assert resolved
        counts.append(count)
    assert counts == expect
