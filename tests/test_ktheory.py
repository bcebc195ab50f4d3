import numpy as np
import pytest
from scipy.linalg import block_diag

from nctorus import ktheory
from nctorus.algebra import ThetaMatrix
from nctorus.complexstruct import (
    ComplexStructure,
    antihol_frame,
    j_from_tau,
    random_complex_structure,
    standard_j,
)
from nctorus.ktheory import (
    Decomposable2Form,
    K0Class,
    _near_pairs,
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
        if i < j:  # rows are in lex order: the lex-smaller covector first
            pairs[(vecs[i], vecs[j])] = float(vals[i, j])
    top = curvature_functional(frame, theta, "top")
    return pairs, top, not pairs and abs(top) > tol


def thin_product_cs():
    """A product whose first factor is nearly degenerate: the covector
    (2, 1, 0, 0) falls under the certificate's tiny cutoff."""
    J = block_diag(j_from_tau(0.5 + 3e-4j).J, j_from_tau(0.3 + 1.1j).J)
    return ComplexStructure(2, J, tol=1e-9)


def square_lattice_cs():
    """The product of two square curves: many exactly vanishing pairs, and
    rational Hopf points with exact ties."""
    return ComplexStructure(2, block_diag(j_from_tau(1j).J, j_from_tau(1j).J))


@pytest.mark.parametrize("cs, theta", [
    (random_complex_structure(2, np.random.default_rng(seed)), generic_theta(seed))
    for seed in (3, 8, 41, 42)
] + [
    (product_cs(), generic_theta(4)),
    (thin_product_cs(), generic_theta(4)),
    (ComplexStructure(2, standard_j(2)), generic_theta(4)),
    (square_lattice_cs(), generic_theta(4)),
])
def test_certificate_matches_all_pairs(cs, theta, tol=None):
    cert = nonalg_certificate(cs, theta, bound=3, tol=tol)
    pairs, top, certified = all_pairs_certificate(cs, theta, 3, cert.tol)
    assert {(a, b) for a, b, _ in cert.vanishing_pairs} == set(pairs)
    for a, b, val in cert.vanishing_pairs:
        assert val == pytest.approx(pairs[(a, b)], rel=1e-12, abs=1e-300)
    assert cert.top_value == top
    assert cert.certified == certified


def test_certificate_matches_all_pairs_at_a_loose_tol():
    # the one vanishing pair's projections lie 0.75 of its sweep radius
    # apart, and candidates fall on both sides of tol
    cs = random_complex_structure(2, np.random.default_rng(13))
    test_certificate_matches_all_pairs(cs, generic_theta(13), tol=2e-2)


def test_certificate_values_take_the_lex_smaller_covector_first():
    # the listed value is the cross product in one fixed order, so it does
    # not depend on where the pair search met the two covectors.  At tol 2e-2
    # the tiny cutoff is 20 sqrt(tol) = 2.8, and the seed-1 sample has three
    # covectors under it that vanish with each other: each such pair is
    # listed once, not once from each end
    cases = [(product_cs(), generic_theta(4), 5, None, 100),
             (random_complex_structure(2, np.random.default_rng(1)), generic_theta(1), 3, 2e-2, 6)]
    for cs, theta, bound, tol, least in cases:
        cert = nonalg_certificate(cs, theta, bound=bound, tol=tol)
        vecs = _primitive_lex_positive(bound)
        U = vecs @ antihol_frame(cs).W.T
        row = {tuple(int(x) for x in v): k for k, v in enumerate(vecs)}
        assert len(cert.vanishing_pairs) > least
        assert all(a < b for a, b, _ in cert.vanishing_pairs)
        pairs = [(a, b) for a, b, _ in cert.vanishing_pairs]
        assert len(set(pairs)) == len(pairs)
        i = np.array([row[a] for a, _ in pairs])
        j = np.array([row[b] for _, b in pairs])
        # elementwise over arrays, as the certificate computes it: numpy's scalar
        # complex product may round differently
        expect = np.abs(U[i, 0] * U[j, 1] - U[i, 1] * U[j, 0])
        assert [v for _, _, v in cert.vanishing_pairs] == expect.tolist()


def test_near_pairs_match_all_pairs():
    rng = np.random.default_rng(5)
    points = rng.integers(-3, 4, size=(300, 3)) / 3.0  # many exact ties
    points[:100] += rng.normal(scale=1e-3, size=(100, 3))
    keys = points @ np.array([1.0, np.sqrt(2.0), np.pi]) / np.sqrt(3.0 + np.pi ** 2)
    gap = np.abs(keys[:, None] - keys[None, :])
    lower = np.where(keys[:, None] <= keys[None, :], np.arange(300)[:, None], np.arange(300))
    for radius in (np.full(300, 1e-12), np.full(300, 2e-3), rng.uniform(0.0, 0.1, 300)):
        i, j = _near_pairs(points, radius)
        assert np.all(i < j)
        near = np.triu(gap <= radius[lower], 1)
        assert set(zip(i.tolist(), j.tolist())) == set(zip(*np.nonzero(near)))
        assert i.size == np.count_nonzero(near)
        # a superset of the pairs within the lower radius in space
        close = np.linalg.norm(points[:, None] - points[None, :], axis=2) <= radius[lower]
        assert set(zip(*np.nonzero(np.triu(close, 1)))) <= set(zip(i.tolist(), j.tolist()))


def sweep_candidates(monkeypatch):
    """A list that receives the candidate count of every sweep."""
    counts = []

    def spy(points, radius):
        out = _near_pairs(points, radius)
        counts.append(out[0].size)
        return out

    monkeypatch.setattr(ktheory, "_near_pairs", spy)
    return counts


def test_sweep_direction_separates_rational_hopf_points(monkeypatch):
    # on a rational structure the candidates are exactly the vanishing pairs:
    # distinct rational Hopf points never share a projection
    candidates = sweep_candidates(monkeypatch)
    for cs in (ComplexStructure(2, standard_j(2)), square_lattice_cs()):
        cert = nonalg_certificate(cs, generic_theta(4), bound=3)
        assert len(cert.vanishing_pairs) > 1000
        assert candidates.pop() == len(cert.vanishing_pairs)


def test_sweep_radius_follows_each_norm(monkeypatch):
    # a nearly degenerate factor gives a few covectors of norm 0.002; one
    # radius 2 tol / m^2 for every point would make 102,219 candidates here
    candidates = sweep_candidates(monkeypatch)
    cs = ComplexStructure(2, block_diag(j_from_tau(0.5 + 1e-3j).J, j_from_tau(0.3 + 1.1j).J))
    cert = nonalg_certificate(cs, generic_theta(4), bound=5)
    assert len(cert.vanishing_pairs) > 1000
    assert candidates.pop() < 1.1 * len(cert.vanishing_pairs)


def test_certificate_vectors_are_shared_read_only():
    vecs = _primitive_lex_positive(3)
    assert vecs is _primitive_lex_positive(3)
    assert not vecs.flags.writeable
    with pytest.raises(ValueError):
        vecs[0, 0] = 7
