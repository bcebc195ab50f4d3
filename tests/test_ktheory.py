import numpy as np
import pytest
from scipy.linalg import block_diag

from nctorus.algebra import ThetaMatrix
from nctorus.complexstruct import (
    ComplexStructure,
    antihol_frame,
    j_from_tau,
    random_complex_structure,
)
from nctorus.ktheory import (
    Decomposable2Form,
    K0Class,
    _primitive_lex_positive,
    chern_top,
    curvature_functional,
    nonalg_certificate,
)


def product_cs(seed=2):
    rng = np.random.default_rng(seed)
    J = np.zeros((4, 4))
    J[:2, :2] = j_from_tau(0.3 + 1.2j).J
    J[2:, 2:] = j_from_tau(-0.1 + 0.9j).J
    return ComplexStructure(2, J)


def generic_theta(seed=5):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-0.7, 0.7, (4, 4)), 1)
    return ThetaMatrix(upper - upper.T)


def test_k0_class_and_top():
    free = K0Class.free(2, 3)
    assert chern_top(free) == 0
    k = K0Class(1, {(): 2, (1, 2): 5})
    assert chern_top(k) == 5
    a = K0Class(2, {(1, 2, 3, 4): 2})
    b = K0Class(2, {(1, 2): 1, (1, 2, 3, 4): -7})
    assert chern_top(a + b) == chern_top(a) + chern_top(b)
    with pytest.raises(ValueError):
        K0Class(1, {(1,): 1})


def test_decomposable_validation():
    with pytest.raises(ValueError):
        Decomposable2Form((1, 0, 0, 0), (2, 0, 0, 0))
    Decomposable2Form((1, 0, 0, 0), (0, 1, 0, 0))


def test_top_functional_zero_theta():
    cs = random_complex_structure(2, np.random.default_rng(1))
    frame = antihol_frame(cs)
    theta0 = ThetaMatrix(np.zeros((4, 4)))
    assert curvature_functional(frame, theta0, "top") == 0


def test_block_case_vanishing_pair():
    cs = product_cs()
    frame = antihol_frame(cs)
    mu = Decomposable2Form((1, 0, 0, 0), (0, 1, 0, 0))
    val = curvature_functional(frame, generic_theta(), mu)
    assert abs(val) < 1e-10


def test_generic_top_nonzero():
    rng = np.random.default_rng(77)
    for seed in range(5):
        cs = random_complex_structure(2, np.random.default_rng(seed))
        frame = antihol_frame(cs)
        val = curvature_functional(frame, generic_theta(seed), "top")
        assert abs(val) > 1e-6


def test_functional_alternating():
    cs = random_complex_structure(2, np.random.default_rng(9))
    frame = antihol_frame(cs)
    theta = generic_theta(9)
    swapped_W = frame.W[[1, 0]]
    from nctorus.complexstruct import AntiholFrame

    swapped = AntiholFrame(swapped_W, frame.pivots)
    mu = Decomposable2Form((1, 0, 2, 0), (0, 1, 0, -1))
    assert curvature_functional(swapped, theta, mu) == pytest.approx(
        -curvature_functional(frame, theta, mu)
    )
    assert curvature_functional(swapped, theta, "top") == pytest.approx(
        -curvature_functional(frame, theta, "top")
    )


def test_functional_scaling_sign_invariance():
    cs = random_complex_structure(2, np.random.default_rng(10))
    frame = antihol_frame(cs)
    theta = generic_theta(10)
    a, b = (1, 2, 0, -1), (0, 1, 1, 0)
    v1 = curvature_functional(frame, theta, Decomposable2Form(a, b))
    v2 = curvature_functional(frame, theta, Decomposable2Form(tuple(-x for x in a), b))
    v3 = curvature_functional(frame, theta, Decomposable2Form(b, a))
    assert abs(v1) == pytest.approx(abs(v2)) == pytest.approx(abs(v3))


def test_functional_matches_plucker_expansion():
    # independent route: expand mu(dbar_1 ^ dbar_2) through the full set of
    # Pluecker coordinates of the plane instead of the 2x2 determinant
    import itertools

    cs = random_complex_structure(2, np.random.default_rng(21))
    frame = antihol_frame(cs)
    theta = generic_theta(21)
    W = frame.W
    P2 = {(j, k): W[0, j] * W[1, k] - W[0, k] * W[1, j]
          for j, k in itertools.combinations(range(4), 2)}
    rng = np.random.default_rng(22)
    for _ in range(20):
        a = rng.integers(-4, 5, size=4)
        b = rng.integers(-4, 5, size=4)
        if np.max(np.abs(np.outer(a, b) - np.outer(b, a))) == 0:
            continue
        direct = curvature_functional(frame, theta, Decomposable2Form(tuple(a), tuple(b)))
        expanded = sum((a[j] * b[k] - a[k] * b[j]) * P2[(j, k)]
                       for j, k in itertools.combinations(range(4), 2))
        assert abs(direct - expanded) < 1e-12 * max(1.0, abs(expanded))


def test_certificate_product_never_certified():
    cert = nonalg_certificate(product_cs(), generic_theta(), bound=2)
    assert not cert.certified
    pairs = {(a, b) for a, b, _ in cert.vanishing_pairs}
    assert ((0, 0, 0, 1), (0, 0, 1, 0)) in pairs or ((0, 1, 0, 0), (1, 0, 0, 0)) in pairs


def test_certificate_zero_theta_not_certified():
    cs = random_complex_structure(2, np.random.default_rng(3))
    cert = nonalg_certificate(cs, ThetaMatrix(np.zeros((4, 4))), bound=2)
    assert not cert.certified
    assert abs(cert.top_value) <= cert.tol


def test_certificate_generic_certified():
    for seed in (41, 42, 43):
        cs = random_complex_structure(2, np.random.default_rng(seed))
        cert = nonalg_certificate(cs, generic_theta(seed), bound=5)
        assert cert.certified, cert.vanishing_pairs[:3]
        assert cert.vanishing_pairs == ()


def test_certificate_deterministic():
    cs = random_complex_structure(2, np.random.default_rng(8))
    theta = generic_theta(8)
    a = nonalg_certificate(cs, theta, bound=4)
    b = nonalg_certificate(cs, theta, bound=4)
    assert a == b


def test_certificate_catches_planted_vanishing():
    # a frame row aligned with an integer covector plane forces vanishing pairs
    cs = product_cs()
    theta = generic_theta(4)
    cert = nonalg_certificate(cs, theta, bound=3)
    assert not cert.certified
    frame = antihol_frame(cs)
    for a, b, val in cert.vanishing_pairs[:5]:
        direct = curvature_functional(frame, theta, Decomposable2Form(a, b))
        assert abs(direct) <= cert.tol


def all_pairs_certificate(cs, theta, bound, tol):
    """Vanishing pairs, top value and verdict by testing every pair of covectors."""
    frame = antihol_frame(cs)
    vecs = [tuple(int(x) for x in v) for v in _primitive_lex_positive(bound)]
    U = np.array(vecs, dtype=float) @ frame.W.T
    vals = np.abs(U[:, 0][:, None] * U[:, 1][None, :] - U[:, 1][:, None] * U[:, 0][None, :])
    pairs = {}
    for i, j in zip(*np.nonzero(vals < tol)):
        if i != j:
            pairs[tuple(sorted((vecs[i], vecs[j])))] = float(vals[i, j])
    top = curvature_functional(frame, theta, "top")
    return pairs, top, not pairs and abs(top) > tol


def thin_product_cs():
    """A product whose first factor is nearly degenerate: the covector
    (2, 1, 0, 0) falls under the certificate's tiny cutoff."""
    J = block_diag(j_from_tau(0.5 + 3e-4j).J, j_from_tau(0.3 + 1.1j).J)
    return ComplexStructure(2, J, tol=1e-9)


@pytest.mark.parametrize("cs, theta", [
    (random_complex_structure(2, np.random.default_rng(seed)), generic_theta(seed))
    for seed in (3, 8, 41, 42)
] + [(product_cs(), generic_theta(4)), (thin_product_cs(), generic_theta(4))])
def test_certificate_matches_all_pairs(cs, theta):
    cert = nonalg_certificate(cs, theta, bound=3)
    pairs, top, certified = all_pairs_certificate(cs, theta, 3, cert.tol)
    assert {(a, b) for a, b, _ in cert.vanishing_pairs} == set(pairs)
    for a, b, val in cert.vanishing_pairs:
        assert val == pytest.approx(pairs[(a, b)], rel=1e-12, abs=1e-300)
    assert cert.top_value == top
    assert cert.certified == certified


def test_certificate_vectors_are_shared_read_only():
    vecs = _primitive_lex_positive(3)
    assert vecs is _primitive_lex_positive(3)
    assert not vecs.flags.writeable
    with pytest.raises(ValueError):
        vecs[0, 0] = 7
