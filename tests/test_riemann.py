from fractions import Fraction

import numpy as np
import pytest

from nctorus.algebra import ThetaMatrix
from nctorus.complexstruct import (
    ComplexStructure,
    PeriodMatrix,
    j_from_period,
    j_from_tau,
    period_from_j,
    random_complex_structure,
)
from _oracles import exact_kernel_reference, exact_search_reference, kernel_points_reference
from nctorus.dolbeault import HypothesisError
from nctorus.lattice import fraction_matrix, is_positive_definite_exact, lll_reduce
from nctorus.riemann import (
    DegenerateFormError,
    IncompatibleFormError,
    IntegerSkewForm,
    decompose_riemann_form,
    detect_block_structure,
    exact_j_from_rational_period,
    frobenius_basis,
    hermitian_from_form,
    _bounded_kernel_points,
    _compat_operator,
    _skew_from_vector,
    ncriemann_h0_bound,
    riemann_form_search,
    siegel_normalize,
    split_torus_example,
    wedge_square_is_zero,
)


def product_cs_consecutive(tau1=0.2 + 1.1j, tau2=-0.3 + 0.8j):
    J = np.zeros((4, 4))
    J[:2, :2] = j_from_tau(tau1).J
    J[2:, 2:] = j_from_tau(tau2).J
    return ComplexStructure(2, J)


def random_skew_form(rng, size=4, lo=-9, hi=9):
    while True:
        A = rng.integers(lo, hi + 1, size=(size, size))
        E = IntegerSkewForm(np.triu(A, 1) - np.triu(A, 1).T)
        if E.det() != 0:
            return E


# -- integer skew forms and Frobenius bases -------------------------------


def test_skew_validation():
    with pytest.raises(ValueError):
        IntegerSkewForm([[0, 1], [1, 0]])


def test_frobenius_standard_and_scaled():
    E = IntegerSkewForm.standard_symplectic(2)
    fb = frobenius_basis(E)
    assert fb.divisors == (1, 1)
    assert np.array_equal(np.abs(fb.U.astype(int)), np.eye(4, dtype=int))
    fb2 = frobenius_basis(IntegerSkewForm(2 * E.E.astype(int)))
    assert fb2.divisors == (2, 2)


def test_frobenius_random_exact():
    rng = np.random.default_rng(0)
    for _ in range(60):
        E = random_skew_form(rng)
        fb = frobenius_basis(E)  # internal checks verify U^T E U exactly
        assert fb.divisors[1] % fb.divisors[0] == 0


def test_frobenius_rank6():
    rng = np.random.default_rng(1)
    for _ in range(10):
        E = random_skew_form(rng, size=6, lo=-5, hi=5)
        fb = frobenius_basis(E)
        d = fb.divisors
        assert d[1] % d[0] == 0 and d[2] % d[1] == 0


def test_frobenius_degenerate():
    E = IntegerSkewForm(np.zeros((4, 4), dtype=int))
    with pytest.raises(DegenerateFormError):
        frobenius_basis(E)


# -- hermitian forms -------------------------------------------------------


def test_hermitian_tau_i():
    cs = j_from_tau(1j)
    rep = hermitian_from_form(IntegerSkewForm([[0, -1], [1, 0]]), cs)
    assert rep.eigenvalues.shape == (1,)
    assert rep.eigenvalues[0] == pytest.approx(1.0)
    assert rep.positivity() == "positive"
    neg = hermitian_from_form(IntegerSkewForm([[0, 1], [-1, 0]]), cs)
    assert neg.positivity() == "not_positive"


def test_hermitian_is_hermitian_and_real_diagonal():
    cs = product_cs_consecutive()
    res = riemann_form_search(cs, bound=3)
    assert res.found
    rep = hermitian_from_form(res.form, cs)
    assert np.max(np.abs(rep.H - rep.H.conj().T)) < 1e-10
    assert np.max(np.abs(np.diag(rep.H).imag)) < 1e-10


def test_hermitian_closed_form_general_tau():
    # hand computation: for the lattice (1, tau) with the positively oriented
    # unit form, H(v, v) on the unit cell is 1 / Im tau; the pivot-normalized
    # coordinates rescale it by |tau|^2 when the tau column is the pivot
    for tau in (0.3 + 0.8j, -0.4 + 1.7j, 2.0 + 0.5j):
        cs = j_from_tau(tau)
        rep = hermitian_from_form(IntegerSkewForm([[0, -1], [1, 0]]), cs)
        expected = 1.0 / tau.imag if abs(tau) <= 1 else abs(tau) ** 2 / tau.imag
        assert rep.eigenvalues[0] == pytest.approx(expected, rel=1e-9)


def test_hermitian_incompatible_raises():
    cs = random_complex_structure(2, np.random.default_rng(7))
    E = IntegerSkewForm.standard_symplectic(2)
    with pytest.raises(IncompatibleFormError):
        hermitian_from_form(E, cs)


# -- the bounded search ----------------------------------------------------


def test_search_n1_always_finds():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        res = riemann_form_search(j_from_tau(tau), bound=3)
        assert res.found
        assert res.hermitian.eigenvalues.min() > 0
        assert np.max(np.abs(res.form.as_float().T @ res.form.as_float())) >= 1


def test_search_product_period():
    Q = np.hstack([1j * np.eye(2), np.eye(2)]).astype(complex)
    cs = j_from_period(PeriodMatrix(Q))
    res = riemann_form_search(cs, bound=3)
    assert res.found
    assert res.hermitian.eigenvalues.min() > 0
    resid = np.max(np.abs(cs.J.T @ res.form.as_float() @ cs.J - res.form.as_float()))
    assert resid < 1e-8


def test_search_splittorus_exact_none_within_bound():
    den = 10 ** 7
    wre, wim = Fraction(5347859, den), Fraction(2531177, den)
    Qre = [[1, 0, 0, wre], [0, 0, 1, 0]]
    Qim = [[0, 1, 0, wim], [0, 0, 0, 1]]
    Jx = exact_j_from_rational_period(Qre, Qim)
    Jf = np.array([[float(x) for x in row] for row in Jx])
    cs = ComplexStructure(2, Jf, tol=1e-9)
    res = riemann_form_search(cs, bound=6, exact=True, exact_j=Jx)
    assert not res.found
    assert not res.inconclusive
    assert res.kernel_dim == 4


def test_search_splittorus_small_denominator_finds():
    # rational w with small denominator splits up to a small isogeny, and
    # the corresponding form is small enough to sit inside the bound
    for wre, wim, max_entry in [(Fraction(1, 2), Fraction(0), 2),
                                (Fraction(1, 2), Fraction(1, 3), 6)]:
        Qre = [[1, 0, 0, wre], [0, 0, 1, 0]]
        Qim = [[0, 1, 0, wim], [0, 0, 0, 1]]
        Jx = exact_j_from_rational_period(Qre, Qim)
        cs = ComplexStructure(2, np.array([[float(x) for x in r] for r in Jx]), tol=1e-9)
        res = riemann_form_search(cs, bound=6, exact=True, exact_j=Jx)
        assert res.found
        assert int(np.max(np.abs(res.form.E.astype(int)))) == max_entry


def test_search_splittorus_w0_finds():
    Qre = [[1, 0, 0, 0], [0, 0, 1, 0]]
    Qim = [[0, 1, 0, 0], [0, 0, 0, 1]]
    Jx = exact_j_from_rational_period(Qre, Qim)
    cs = ComplexStructure(2, np.array([[float(x) for x in r] for r in Jx]))
    assert riemann_form_search(cs, bound=6, exact=True, exact_j=Jx).found
    assert riemann_form_search(cs, bound=6).found


def test_search_found_forms_verify():
    # every positive verdict satisfies compatibility and positivity margins
    for seed, cs in [(0, product_cs_consecutive()), (1, j_from_tau(0.4 + 0.9j))]:
        res = riemann_form_search(cs, bound=4)
        assert res.found
        E = res.form.as_float()
        assert np.max(np.abs(cs.J.T @ E @ cs.J - E)) < 1e-8
        assert res.hermitian.positivity() == "positive"


def rational_split_torus(wre, wim):
    """Split torus with tau = tau' = i and rational w: exact J and its float cs."""
    Qre = [[1, 0, 0, wre], [0, 0, 1, 0]]
    Qim = [[0, 1, 0, wim], [0, 0, 0, 1]]
    Jx = exact_j_from_rational_period(Qre, Qim)
    cs = ComplexStructure(2, np.array([[float(x) for x in r] for r in Jx]), tol=1e-9)
    return cs, Jx


EXACT_TORI = {
    "w=1/2": (Fraction(1, 2), Fraction(0)),
    "w=1/2+i/3": (Fraction(1, 2), Fraction(1, 3)),
    "w=0": (Fraction(0), Fraction(0)),
    "w~1e-7": (Fraction(5347859, 10 ** 7), Fraction(2531177, 10 ** 7)),
    # J's denominators pass int64: the prefilter's diagonal takes Python ints
    "w~1e-30": (Fraction(1, 2) + Fraction(1, 10 ** 30), Fraction(1, 10 ** 30)),
}


@pytest.mark.parametrize("name", sorted(EXACT_TORI))
def test_exact_search_matches_fraction_reference(name):
    cs, Jx = rational_split_torus(*EXACT_TORI[name])
    for bound in (2, 3, 4):
        res = riemann_form_search(cs, bound=bound, exact=True, exact_j=Jx)
        found, E, inconclusive = exact_search_reference(Jx, bound)
        assert (res.found, res.inconclusive) == (found, inconclusive)
        assert (res.form.E.tolist() if res.found else None) == E


@pytest.mark.parametrize("name", ["w=1/2", "w=0"])
def test_exact_scan_skips_forms_with_positive_diagonal(name):
    # candidates that pass the diagonal prefilter and fail Sylvester precede
    # the form found, so the comparison above covers the second test too
    cs, Jx = rational_split_torus(*EXACT_TORI[name])
    J = fraction_matrix(Jx)
    res = riemann_form_search(cs, bound=3, exact=True, exact_j=Jx)
    skipped = 0
    for vec in _bounded_kernel_points(exact_kernel_reference(Jx), 3):
        E = _skew_from_vector(vec, 4)
        if E.tolist() == res.form.E.tolist():
            break
        S = [[sum(J[a][r] * int(E[a, c]) for a in range(4)) for c in range(4)]
             for r in range(4)]
        if all(S[r][r] > 0 for r in range(4)):
            assert not is_positive_definite_exact(S)
            skipped += 1
    assert skipped > 0


def test_bounded_kernel_points_match_itertools():
    kernels = [
        exact_kernel_reference(rational_split_torus(*EXACT_TORI["w=1/2"])[1]),
        exact_kernel_reference(rational_split_torus(*EXACT_TORI["w~1e-7"])[1]),
        [[1]],
        [[1, 2, 3], [2, 5, 7]],
        [[2, 0, 0], [0, 3, 1]],
        # a coordinate past int64: the combination runs on Python ints
        [[1, 0, 3], [0, 1, 2 ** 70 + 1]],
    ]
    for kernel in kernels:
        for bound in (1, 2, 4):
            got = _bounded_kernel_points(kernel, bound)
            assert got == kernel_points_reference(kernel, bound)
            assert all(type(t) is int for x in got for t in x)


def test_reduced_kernel_basis_stays_in_the_kernel():
    # kernel entries near 1e30 are past float precision: the reduction must
    # act on the integer rows themselves, as _bounded_kernel_points calls it
    Jx = rational_split_torus(*EXACT_TORI["w~1e-30"])[1]
    kernel = exact_kernel_reference(Jx)
    assert max(abs(t) for v in kernel for t in v) > 2 ** 53
    A = _compat_operator(fraction_matrix(Jx))
    red = lll_reduce(np.array(kernel, dtype=object))
    assert len(red) == len(kernel)
    for row in red:
        assert any(row) and all(type(t) is int for t in row)
        assert all(sum(a * x for a, x in zip(arow, row)) == 0 for arow in A)


def test_bounded_kernel_points_oversized_box_raises():
    with pytest.raises(ValueError, match="too large"):
        _bounded_kernel_points(np.eye(6, dtype=int).tolist(), 10)


# -- decomposition ---------------------------------------------------------


def test_decompose_product_case():
    cs = product_cs_consecutive()
    res = riemann_form_search(cs, bound=3)
    fb = frobenius_basis(res.form)
    pieces, reports = decompose_riemann_form(res.form, fb, cs)
    total = sum(p.E for p in pieces)
    assert np.array_equal(total, res.form.E)
    for p, rep in zip(pieces, reports):
        assert wedge_square_is_zero(p)
        assert rep.residual < 1e-8
        eigs = np.sort(rep.eigenvalues)
        assert eigs[-1] > 1e-9
        assert abs(eigs[0]) < 1e-9 * max(1.0, eigs[-1])


def test_decompose_reports_residual_when_not_adapted():
    # generic Riemann forms need not split J-compatibly piece by piece;
    # the reports record the residual instead of failing
    Q = np.hstack([1j * np.eye(2), np.eye(2)]).astype(complex)
    cs = j_from_period(PeriodMatrix(Q))
    E = IntegerSkewForm(np.array([
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
        [-1, 0, 0, 2],
        [0, -1, -2, 0],
    ]))
    assert E.det() != 0
    fb = frobenius_basis(E)
    pieces, reports = decompose_riemann_form(E, fb, cs)
    assert sum(p.E for p in pieces).tolist() == E.E.tolist()


# -- Siegel normalization ---------------------------------------------------


def test_siegel_standard():
    pm = PeriodMatrix(np.hstack([1j * np.eye(2), np.eye(2)]).astype(complex))
    res = siegel_normalize(pm)
    assert res.symmetric and res.positive
    assert np.max(np.abs(res.omega - 1j * np.eye(2))) < 1e-12


def test_siegel_asymmetric_flag():
    pm = PeriodMatrix(np.array([[1j, 1, 1, 0], [0, 1j, 0, 1]], dtype=complex))
    res = siegel_normalize(pm)
    assert not res.symmetric


def test_siegel_splittorus_w0():
    tau, taup = 0.3 + 1.1j, -0.2 + 0.7j
    pm = split_torus_example(tau, taup, 0)
    res = siegel_normalize(pm, split=(0, 2))
    assert res.symmetric and res.positive
    assert res.omega[0, 0] == pytest.approx(taup)
    assert res.omega[1, 1] == pytest.approx(tau)


def test_siegel_agrees_with_search_via_frobenius():
    for cs in [j_from_tau(1j), j_from_tau(0.5 + 1.3j), product_cs_consecutive()]:
        res = riemann_form_search(cs, bound=4)
        assert res.found
        fb = frobenius_basis(res.form)
        Pi = period_from_j(cs).Q @ fb.U.astype(float)
        sg = siegel_normalize(PeriodMatrix(Pi))
        assert sg.symmetric and sg.positive


# -- split torus and block detection ----------------------------------------


def test_split_torus_example_columns():
    tau, taup, w = 0.2 + 0.9j, -0.1 + 1.4j, 0.3 - 0.2j
    pm = split_torus_example(tau, taup, w)
    assert pm.Q.shape == (2, 4)
    assert pm.Q[0, 1] == taup and pm.Q[1, 3] == tau and pm.Q[0, 3] == w
    cs = j_from_period(pm)  # always a valid complex structure
    assert cs.n == 2
    with pytest.raises(ValueError):
        split_torus_example(1j, -1j, 0)


def test_split_torus_quotient_lattice():
    # dropping the first coordinate maps the last two columns onto Z + tau Z
    tau, taup, w = 0.2 + 0.9j, -0.1 + 1.4j, 0.37 + 0.11j
    pm = split_torus_example(tau, taup, w)
    second = pm.Q[1]
    assert np.allclose(second[[0, 1]], 0)
    assert second[2] == 1 and second[3] == tau


def test_detect_block_structure():
    theta_p = ThetaMatrix.product([0.3, 0.7])
    cs_p = product_cs_consecutive()
    res = detect_block_structure(theta_p, cs_p)
    assert res.product_type and res.splitting
    assert res.theta12 == pytest.approx(0.3)
    rng = np.random.default_rng(5)
    upper = np.triu(rng.uniform(-0.5, 0.5, (4, 4)), 1)
    theta_dense = ThetaMatrix(upper - upper.T)
    res2 = detect_block_structure(theta_dense, cs_p)
    assert res2.splitting and not res2.product_type
    cs_dense = random_complex_structure(2, rng)
    res3 = detect_block_structure(theta_dense, cs_dense)
    assert not res3.splitting and not res3.product_type and res3.theta12 is None


# -- the spectral lower bound ------------------------------------------------


def interleaved_square_product():
    # product of two square elliptic curves, lattice basis ordered so the
    # standard symplectic form pairs each curve with itself
    Q = np.hstack([1j * np.eye(2), np.eye(2)]).astype(complex)
    return j_from_period(PeriodMatrix(Q))


def test_ncriemann_product_bound():
    theta = ThetaMatrix.product([0.3, 0.7])
    cs = interleaved_square_product()
    E = IntegerSkewForm.standard_symplectic(2)
    assert hermitian_from_form(E, cs).positivity() == "positive"
    res2 = ncriemann_h0_bound(theta, cs, E, k=2)
    assert res2.h0_lower_bound >= 2
    assert res2.degree == 2 and res2.stable
    res1 = ncriemann_h0_bound(theta, cs, E, k=1)
    assert res1.h0_lower_bound == 1


def test_ncriemann_n1_degenerate():
    theta = ThetaMatrix.elliptic(0.41)
    cs = j_from_tau(0.3 + 1.7j)
    E = IntegerSkewForm([[0, -1], [1, 0]])
    res = ncriemann_h0_bound(theta, cs, E, k=3)
    assert res.h0_lower_bound == 3
    assert abs(res.tau.imag) > 0


def test_ncriemann_on_search_result():
    # the form found for a consecutive-block product feeds the bound too
    theta = ThetaMatrix.product([0.3, 0.7])
    cs = product_cs_consecutive()
    res = riemann_form_search(cs, bound=3)
    assert res.found
    out = ncriemann_h0_bound(theta, cs, res.form, k=2)
    assert out.h0_lower_bound >= 2


def test_ncriemann_rejects_nonpositive():
    theta = ThetaMatrix.product([0.3, 0.7])
    cs = interleaved_square_product()
    E = IntegerSkewForm(-IntegerSkewForm.standard_symplectic(2).E.astype(int))
    with pytest.raises(HypothesisError):
        ncriemann_h0_bound(theta, cs, E, k=1)
