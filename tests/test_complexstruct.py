import numpy as np
import pytest
import scipy.linalg

from nctorus.complexstruct import (
    AntiholFrame,
    ComplexStructure,
    ConditioningError,
    DegenerateLatticeError,
    PeriodMatrix,
    _pivot_normalize,
    antihol_frame,
    block_adapted_frame,
    invariant_metric,
    j_from_period,
    j_from_tau,
    period_from_j,
    random_complex_structure,
    standard_j,
)


def random_cs(seed, n=2):
    return random_complex_structure(n, np.random.default_rng(seed))


def test_validation():
    with pytest.raises(ValueError):
        ComplexStructure(1, np.eye(2))
    cs = ComplexStructure(2, standard_j(2))
    assert cs.n == 2


def test_standard_frame_structure():
    # rows of the J0 frame combine delta_j with +i * delta_{n+j}
    n = 2
    cs = ComplexStructure(n, standard_j(n))
    fr = antihol_frame(cs)
    for row in fr.W:
        lead = row[:n]
        tail = row[n:]
        assert np.max(np.abs(tail - 1j * lead)) < 1e-10


def test_frame_eigencondition_random():
    for seed in range(4):
        cs = random_cs(seed)
        fr = antihol_frame(cs)
        assert np.max(np.abs(fr.W @ cs.J.T + 1j * fr.W)) < 1e-10
        assert np.linalg.matrix_rank(fr.W) == cs.n
        block = fr.W[:, list(fr.pivots)]
        assert np.max(np.abs(block - np.eye(cs.n))) < 1e-10


def test_frame_spans_with_conjugate():
    cs = random_cs(7, n=3)
    fr = antihol_frame(cs)
    P = np.vstack([fr.W, fr.W.conj()])
    assert np.linalg.cond(P) < 1e6


def test_frame_determinism():
    cs = random_cs(3)
    a = antihol_frame(cs)
    b = antihol_frame(cs)
    assert a.W.tobytes() == b.W.tobytes()
    assert a.pivots == b.pivots


def test_block_diagonal_frame_rows_blockwise():
    # eigenvectors of a block matrix stay in their blocks after normalization
    rng = np.random.default_rng(12)
    blocks = []
    for _ in range(2):
        a = rng.uniform(-0.8, 0.8)
        b = rng.uniform(0.5, 1.5)
        c = -(1 + a * a) / b
        blocks.append(np.array([[a, b], [c, -a]]))
    J = np.zeros((4, 4))
    J[:2, :2] = blocks[0]
    J[2:, 2:] = blocks[1]
    cs = ComplexStructure(2, J)
    fr = antihol_frame(cs)
    for row in fr.W:
        support = [np.linalg.norm(row[:2]), np.linalg.norm(row[2:])]
        assert min(support) < 1e-10 * max(support)
    adapted = block_adapted_frame(cs)
    assert np.linalg.norm(adapted.W[0, 2:]) < 1e-9


def test_period_defining_contract():
    for seed in range(4):
        cs = random_cs(seed + 20)
        pm = period_from_j(cs)
        assert np.max(np.abs(pm.Q @ cs.J - 1j * pm.Q)) < 1e-10


def test_period_standard():
    # J0 gives the classical identification x + i y: Q row-equivalent to (I | iI)
    n = 2
    cs = ComplexStructure(n, standard_j(n))
    Q = period_from_j(cs).Q
    M = np.linalg.solve(Q[:, :n], Q[:, n:])
    assert np.max(np.abs(M - 1j * np.eye(n))) < 1e-10


def test_period_roundtrip():
    for seed in range(5):
        cs = random_cs(seed + 40)
        back = j_from_period(period_from_j(cs))
        assert np.max(np.abs(back.J - cs.J)) < 1e-9


def test_j_from_period_real_and_valid():
    rng = np.random.default_rng(9)
    Q = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    cs = j_from_period(PeriodMatrix(Q))
    assert np.max(np.abs(cs.J @ cs.J + np.eye(4))) < 1e-9


def test_j_from_period_degenerate():
    Q = np.array([[1.0, 1j, 0, 0], [1.0, 1j, 0, 0]])
    with pytest.raises((DegenerateLatticeError, ConditioningError)):
        j_from_period(PeriodMatrix(Q))


def test_j_from_tau():
    cs = j_from_tau(1j)
    assert np.max(np.abs(cs.J - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-12
    with pytest.raises(ValueError):
        j_from_tau(1.0 - 0.5j)


def test_invariant_metric():
    cs = random_cs(50)
    rng = np.random.default_rng(51)
    A = rng.normal(size=(4, 4))
    G0 = A @ A.T + 4 * np.eye(4)
    g = invariant_metric(cs, G0)
    assert np.max(np.abs(cs.J.T @ g.G @ cs.J - g.G)) < 1e-10
    assert np.min(np.linalg.eigvalsh(g.G)) > 0
    # orthogonal J with identity input is fixed
    cs0 = ComplexStructure(2, standard_j(2))
    assert np.max(np.abs(invariant_metric(cs0).G - np.eye(4))) < 1e-14
    with pytest.raises(ValueError):
        invariant_metric(cs, -np.eye(4))


def test_frames_match_a_scipy_null_space_reference():
    # the frame and period matrix come from a numpy SVD; scipy.linalg.null_space
    # with rcond 1e-9 followed by the same pivot normalization is the reference
    for n in (1, 2, 3):
        rng = np.random.default_rng(100 + n)
        eye = np.eye(2 * n)
        for _ in range(200):
            cs = random_complex_structure(n, rng)
            W, pivots = _pivot_normalize(scipy.linalg.null_space(cs.J + 1j * eye, rcond=1e-9).T)
            frame = antihol_frame(cs)
            assert frame.pivots == pivots
            assert np.max(np.abs(frame.W - W)) <= 1e-13
            Q, _ = _pivot_normalize(scipy.linalg.null_space(cs.J.T - 1j * eye, rcond=1e-9).T)
            assert np.max(np.abs(period_from_j(cs).Q - Q)) <= 1e-13


@pytest.mark.parametrize("dim", [0, 1])
def test_eigenspace_of_the_wrong_dimension_is_refused(dim):
    # J^2 = -1 only within a loose tol: the +-i eigenspaces have dimension dim, not n = 2
    J = scipy.linalg.block_diag(*[standard_j(1)] * dim, np.zeros((4 - 2 * dim,) * 2))
    cs = ComplexStructure(2, J, tol=2.0)
    with pytest.raises(ConditioningError, match="numerical dimension"):
        antihol_frame(cs)
    with pytest.raises(ConditioningError, match="numerical dimension"):
        period_from_j(cs)
