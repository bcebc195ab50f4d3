import cmath
import math

import numpy as np
import pytest

from nctorus.algebra import (
    ContextError,
    FourierElement,
    MatrixElement,
    ThetaMatrix,
    derivation,
    gauge_act,
    multiply,
    star,
    trace,
    trace_inner,
)

from _oracles import ClockShift, random_fourier, word_multiply


def max_coeff_diff(a: FourierElement, b: FourierElement) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coefficient(m) - b.coefficient(m)) for m in keys), default=0.0)


@pytest.fixture
def theta2():
    return ThetaMatrix.elliptic(0.3)


@pytest.fixture
def theta4():
    rng = np.random.default_rng(5)
    upper = np.triu(rng.uniform(-0.7, 0.7, (4, 4)), 1)
    return ThetaMatrix(upper - upper.T)


def test_theta_validation():
    with pytest.raises(ValueError):
        ThetaMatrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        ThetaMatrix(np.zeros((3, 3)))


def test_commutation_phase(theta2):
    u1 = FourierElement.generator(theta2, 1)
    u2 = FourierElement.generator(theta2, 2)
    ab = multiply(u1, u2)
    ba = multiply(u2, u1)
    ratio = ab.coefficient((1, 1)) / ba.coefficient((1, 1))
    assert abs(ratio - cmath.exp(2j * math.pi * 0.3)) < 1e-12


def test_identity(theta4):
    rng = np.random.default_rng(0)
    one = FourierElement.one(theta4)
    for _ in range(5):
        a = random_fourier(theta4, rng, 5, 3)
        assert max_coeff_diff(multiply(one, a), a) < 1e-14
        assert max_coeff_diff(multiply(a, one), a) < 1e-14


def test_multiply_against_word_oracle(theta4):
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = random_fourier(theta4, rng, 4, 2)
        b = random_fourier(theta4, rng, 4, 2)
        got = multiply(a, b)
        want = word_multiply(theta4.entries, dict(a.coeffs), dict(b.coeffs))
        keys = set(got.coeffs) | set(want)
        err = max(abs(got.coefficient(m) - want.get(m, 0.0)) for m in keys)
        assert err < 1e-12


def test_star_unitarity(theta4):
    m = (2, -1, 0, 3)
    u = FourierElement.monomial(theta4, m)
    assert max_coeff_diff(multiply(star(u), u), FourierElement.one(theta4)) < 1e-12
    assert max_coeff_diff(multiply(u, star(u)), FourierElement.one(theta4)) < 1e-12


def test_star_scalar(theta2):
    lam = 0.7 - 0.2j
    a = FourierElement.monomial(theta2, (0, 0), lam)
    assert star(a).coefficient((0, 0)) == pytest.approx(lam.conjugate())


def test_star_antihomomorphism(theta4):
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_fourier(theta4, rng, 4, 2)
        b = random_fourier(theta4, rng, 4, 2)
        assert max_coeff_diff(star(multiply(a, b)), multiply(star(b), star(a))) < 1e-12


def test_associativity(theta4):
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_fourier(theta4, rng, 4, 2)
        b = random_fourier(theta4, rng, 4, 2)
        c = random_fourier(theta4, rng, 4, 2)
        assert max_coeff_diff(multiply(multiply(a, b), c), multiply(a, multiply(b, c))) < 1e-12


def test_trace_values(theta2):
    assert trace(FourierElement.one(theta2)) == 1
    assert trace(FourierElement.generator(theta2, 1)) == 0


def test_trace_commutativity(theta4):
    rng = np.random.default_rng(4)
    for _ in range(40):
        a = random_fourier(theta4, rng, 5, 2)
        b = random_fourier(theta4, rng, 5, 2)
        assert abs(trace(multiply(a, b)) - trace(multiply(b, a))) < 1e-12


def test_trace_positivity(theta4):
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_fourier(theta4, rng, 5, 2)
        val = trace(multiply(star(a), a))
        assert val.real >= 0
        assert abs(val.imag) < 1e-12


def test_trace_inner_is_the_l2_product_of_coefficients(theta4):
    # monomials are orthonormal for <a, b> = trace(star(b) a): the twisted
    # product reduces to sum_m a_m conj(b_m), conjugate linear in b
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_fourier(theta4, rng, 5, 2)
        b = random_fourier(theta4, rng, 5, 2)
        want = sum(c * b.coefficient(m).conjugate() for m, c in a.coeffs.items())
        assert abs(trace_inner(a, b) - want) < 1e-12
        assert abs(trace_inner(b, a) - want.conjugate()) < 1e-12
        assert abs(trace_inner(a, b.scale(2j)) - (-2j) * want) < 1e-12
    u1, u2 = (FourierElement.generator(theta4, j) for j in (1, 2))
    assert abs(trace_inner(u1, u1) - 1) < 1e-15 and trace_inner(u1, u2) == 0


def test_derivation_on_generators(theta2):
    u1 = FourierElement.generator(theta2, 1)
    u2 = FourierElement.generator(theta2, 2)
    d1u1 = derivation(1, u1)
    assert abs(d1u1.coefficient((1, 0)) - 2j * math.pi) < 1e-15
    assert derivation(1, u2).is_zero()
    with pytest.raises(IndexError):
        derivation(3, u1)


def test_derivation_leibniz(theta4):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_fourier(theta4, rng, 4, 2)
        b = random_fourier(theta4, rng, 4, 2)
        for j in (1, 3):
            lhs = derivation(j, multiply(a, b))
            rhs = multiply(derivation(j, a), b) + multiply(a, derivation(j, b))
            assert max_coeff_diff(lhs, rhs) < 1e-11


def test_derivation_star_compatible(theta4):
    rng = np.random.default_rng(8)
    a = random_fourier(theta4, rng, 5, 2)
    for j in range(1, 5):
        assert max_coeff_diff(derivation(j, star(a)), star(derivation(j, a))) < 1e-12


def test_derivations_commute(theta4):
    # diagonal actions commute; float rounding of the scalar products is the
    # only difference between the two orders (no cancellation involved)
    rng = np.random.default_rng(9)
    a = random_fourier(theta4, rng, 5, 3)
    for j in range(1, 5):
        for k in range(1, 5):
            assert max_coeff_diff(
                derivation(j, derivation(k, a)), derivation(k, derivation(j, a))
            ) < 1e-12


def test_gauge_action(theta2):
    rng = np.random.default_rng(10)
    a = random_fourier(theta2, rng, 5, 2)
    ident = gauge_act([1.0, 1.0], a)
    assert max_coeff_diff(ident, a) == 0.0
    t = np.exp(2j * math.pi * np.array([0.13, 0.71]))
    u11 = FourierElement.monomial(theta2, (1, 1))
    acted = gauge_act(t, u11)
    assert abs(acted.coefficient((1, 1)) - t[0] * t[1]) < 1e-14
    assert abs(trace(gauge_act(t, a)) - trace(a)) < 1e-14
    with pytest.raises(ValueError):
        gauge_act([1.0, 2.0], a)


def test_gauge_is_automorphism(theta4):
    rng = np.random.default_rng(11)
    t = np.exp(2j * math.pi * rng.uniform(size=4))
    a = random_fourier(theta4, rng, 4, 2)
    b = random_fourier(theta4, rng, 4, 2)
    assert max_coeff_diff(gauge_act(t, multiply(a, b)),
                          multiply(gauge_act(t, a), gauge_act(t, b))) < 1e-12


def test_context_mismatch(theta2):
    other = ThetaMatrix.elliptic(0.31)
    a = FourierElement.generator(theta2, 1)
    b = FourierElement.generator(other, 1)
    with pytest.raises(ContextError):
        multiply(a, b)


@pytest.mark.parametrize("p,q", [(1, 3), (1, 5), (3, 8), (1, 2), (5, 7)])
def test_clock_shift_oracle(p, q):
    theta = ThetaMatrix.elliptic(p / q)
    rep = ClockShift(p, q)
    rng = np.random.default_rng(100 + q)
    for _ in range(20):
        a = random_fourier(theta, rng, 4, q - 1)
        b = random_fourier(theta, rng, 4, q - 1)
        ra, rb = rep.rep(dict(a.coeffs)), rep.rep(dict(b.coeffs))
        assert np.max(np.abs(rep.rep(dict(multiply(a, b).coeffs)) - ra @ rb)) < 1e-12
        assert np.max(np.abs(rep.rep(dict(star(a).coeffs)) - ra.conj().T)) < 1e-12
        assert abs(trace(a) - rep.normalized_trace(ra)) < 1e-12
        # derivations correspond to the diagonal mode action; check via gauge orbit
        t = np.exp(2j * math.pi * np.array([0.25, 0.0]))
        ga = gauge_act(t, a)
        assert np.max(np.abs(rep.rep(dict(ga.coeffs))
                             - rep.rep({m: c * t[0] ** m[0] for m, c in a.coeffs.items()}))) < 1e-12


def test_serialization_roundtrip(theta4):
    rng = np.random.default_rng(12)
    a = random_fourier(theta4, rng, 6, 3)
    b = FourierElement.from_terms(theta4, a.to_terms())
    assert max_coeff_diff(a, b) == 0.0


def test_matrix_element_ops(theta2):
    rng = np.random.default_rng(13)
    a = MatrixElement.from_scalars(theta2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    b = MatrixElement.from_scalars(theta2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    prod = a @ b
    assert prod.entries[0][0].coefficient((0, 0)) == pytest.approx(2.0)
    st = a.star_transpose()
    assert st.entries[1][0].coefficient((0, 0)) == pytest.approx(2.0)
    assert (a - a).is_zero()
