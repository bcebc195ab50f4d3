import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import nctorus.dolbeault as dlb
from nctorus.algebra import FourierElement, MatrixElement, ThetaMatrix
from nctorus.complexstruct import (
    ComplexStructure,
    antihol_frame,
    block_adapted_frame,
    invariant_metric,
    j_from_tau,
    random_complex_structure,
    standard_j,
)


def generic_theta4(seed=5):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-0.7, 0.7, (4, 4)), 1)
    return ThetaMatrix(upper - upper.T)


def gradient_connection(theta, frame, s, c, rank=1):
    """a_j = c (W s)_j U^s on each diagonal fiber entry; flat by construction."""
    ws = frame.W @ np.array(s)
    terms = []
    for j in range(frame.n):
        fe = FourierElement.monomial(theta, s, c * ws[j])
        zero = FourierElement.zero(theta)
        entries = [[fe if i == k else zero for k in range(rank)] for i in range(rank)]
        terms.append(MatrixElement(theta, entries))
    return dlb.FreeConnection(rank, terms)


@pytest.fixture(scope="module")
def setup2():
    theta = generic_theta4()
    cs = random_complex_structure(2, np.random.default_rng(3))
    return theta, cs, antihol_frame(cs)


# -- curvature ----------------------------------------------------------


def test_flatness_trivial_and_constant(setup2):
    theta, cs, frame = setup2
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    assert dlb.flatness_curvature(conn, frame).is_flat
    shift = dlb.FreeConnection.scalar_shift(theta, [0.4 + 0.1j, -0.2j])
    assert dlb.flatness_curvature(shift, frame).is_flat


def test_curvature_commutator_term(setup2):
    theta, cs, frame = setup2
    u3 = MatrixElement(theta, [[FourierElement.monomial(theta, (0, 0, 1, 0))]])
    u1 = MatrixElement(theta, [[FourierElement.monomial(theta, (1, 0, 0, 0))]])
    conn = dlb.FreeConnection(1, [u3, u1])
    curv = dlb.flatness_curvature(conn, frame)
    assert not curv.is_flat
    coeff = curv.entries[0][1].entries[0][0].coefficient((1, 0, 1, 0))
    want = np.exp(2j * math.pi * theta.entries[2, 0]) - 1.0
    assert abs(coeff - want) < 1e-12


def test_gradient_connection_is_flat(setup2):
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, -1, 0), 0.6 - 0.2j)
    assert dlb.flatness_curvature(conn, frame).is_flat


def test_cohomology_rejects_nonflat(setup2):
    theta, cs, frame = setup2
    u3 = MatrixElement(theta, [[FourierElement.monomial(theta, (0, 0, 1, 0))]])
    u1 = MatrixElement(theta, [[FourierElement.monomial(theta, (1, 0, 0, 0))]])
    conn = dlb.FreeConnection(1, [u3, u1])
    with pytest.raises(dlb.NonFlatError):
        dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(1))


# -- the compressed complex ---------------------------------------------


def test_dbar_squared_exactly_zero(setup2):
    theta, cs, frame = setup2
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    A0 = dlb.assemble_operator(cs, frame, conn, dlb.TruncationBox(2), 0)
    A1 = dlb.assemble_operator(cs, frame, conn, dlb.TruncationBox(2), 1)
    assert abs((A1 @ A0)).max() == 0.0


def test_gram_adjoint_identity(setup2):
    # <A x, y> = <x, A* y> with A* = M_q^{-1} A^H M_{q+1} on the form Gram
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (0, 1, 0, 0), 0.3 + 0.4j)
    N = 1
    forms = dlb._form_indices(2)
    Ls, _ = dlb._form_grams(frame, invariant_metric(cs).G, forms)
    Ms = [L @ L.conj().T for L in Ls]
    K = dlb.mode_count(4, N)
    rng = np.random.default_rng(8)
    for q in range(2):
        A = dlb.assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q).toarray()
        Gq = np.kron(Ms[q], np.eye(K))
        Gq1 = np.kron(Ms[q + 1], np.eye(K))
        Astar = np.linalg.solve(Gq, A.conj().T @ Gq1)
        x = rng.normal(size=A.shape[1]) + 1j * rng.normal(size=A.shape[1])
        y = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
        lhs = y.conj() @ Gq1 @ (A @ x)
        rhs = (Astar @ y).conj() @ Gq @ x
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_form_gram_matches_dual_basis_metric(n):
    # dz-bar is the dual basis of the rows of W, and J-invariance makes the
    # spans of W and W-bar G-orthogonal, so the degree-1 Gram M_1 = L_1 L_1^H
    # is (W G W^H)^-1, an entry built without _form_grams; the adjoint
    # identity above holds for any invertible Hermitian Gram
    cs = random_complex_structure(n, np.random.default_rng(7 + n))
    frame = antihol_frame(cs)
    G = invariant_metric(cs).G
    Ls, _ = dlb._form_grams(frame, G, dlb._form_indices(n))
    want = np.linalg.inv(frame.W @ G @ frame.W.conj().T)
    assert np.allclose(Ls[1] @ Ls[1].conj().T, want, rtol=0, atol=1e-12)
    # a Hermitian positive M that is no metric of the frame fails it
    skew = np.triu(np.ones((n, n)), 1)
    fake = np.diag(np.arange(1.0, n + 1)) + 0.3j * (skew - skew.T)
    assert not np.allclose(fake, want, rtol=0, atol=1e-2)


def test_trivial_dims_all_n():
    rng = np.random.default_rng(17)
    for n, N in [(1, 3), (2, 2), (3, 1)]:
        theta = ThetaMatrix.product([0.31, 0.47, 0.23][:n])
        cs = random_complex_structure(n, rng)
        frame = antihol_frame(cs)
        for r in (1, 2):
            conn = dlb.FreeConnection.trivial(theta, n, r)
            rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(N))
            want = tuple(r * math.comb(n, q) for q in range(n + 1))
            assert rep.dims == want
            assert rep.stable and rep.conclusive
            assert rep.index == 0
            assert rep.kernel_modes_q0 == (((0,) * 2 * n, r),)


def test_kernel_modes_q0_unset_when_candidates_were_capped():
    # a loose tolerance puts hundreds of modes in the kernel, more than the
    # 256 q0 candidates kept per chunk: the attribution would fall short
    theta = ThetaMatrix.product([0.31])
    cs = random_complex_structure(1, np.random.default_rng(17))
    frame = antihol_frame(cs)
    conn = dlb.FreeConnection.trivial(theta, 1, 1)
    run = dlb._box_run(cs, frame, conn, 12, 0.3, True, False)
    assert run.dims[0] > 256 and run.kernel_modes_q0 is None
    # at 0.02 more than 256 modes sit below the provisional cutoff but only
    # 35 below the threshold: the 256 smallest candidates hold all of them
    for tol_rel in (0.01, 0.02):
        run = dlb._box_run(cs, frame, conn, 12, tol_rel, True, False)
        assert run.dims[0] > 1
        assert sum(c for _, c in run.kernel_modes_q0) == run.dims[0]


def test_trivial_truncation_exact(setup2):
    theta, cs, frame = setup2
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    for N in (1, 2, 4):
        rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(N))
        assert rep.dims == (1, 2, 1)


def test_scalar_shift_dims(setup2):
    theta, cs, frame = setup2
    off = dlb.FreeConnection.scalar_shift(theta, [0.37 + 0.21j, -0.13 + 0.52j])
    rep = dlb.cohomology_dims(cs, frame, off, dlb.TruncationBox(3))
    assert rep.dims == (0, 0, 0)
    assert rep.stable
    # shifts on the frequency lattice move the kernel to that mode
    m0 = np.array([1, 0, -1, 1])
    c = -2j * math.pi * (frame.W @ m0)
    on = dlb.FreeConnection.scalar_shift(theta, list(c))
    rep2 = dlb.cohomology_dims(cs, frame, on, dlb.TruncationBox(3))
    assert rep2.dims == (1, 2, 1)
    assert rep2.kernel_modes_q0 == ((tuple(int(x) for x in m0), 1),)


def normalized_operators(cs, frame, conn, N):
    """The full-box A_q from assemble_operator, in the orthonormal form bases."""
    n = frame.n
    Ls, Linvs = dlb._form_grams(frame, invariant_metric(cs).G, dlb._form_indices(n))
    eye = sp.identity(dlb.mode_count(2 * n, N) * conn.rank, format="csr")
    At = []
    for q in range(n):
        A = dlb.assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q)
        At.append(sp.kron(Ls[q + 1].conj().T, eye) @ A @ sp.kron(Linvs[q].conj().T, eye))
    return At


def dense_laplacian_spectra(cs, frame, conn, N):
    """Eigenvalues of the full-box Laplacians built from assemble_operator, per degree."""
    n = frame.n
    At = normalized_operators(cs, frame, conn, N)
    spectra = []
    for q in range(n + 1):
        Lap = None
        if q < n:
            Lap = At[q].conj().T @ At[q]
        if q > 0:
            low = At[q - 1] @ At[q - 1].conj().T
            Lap = low if Lap is None else Lap + low
        Lap = Lap.toarray()
        spectra.append(np.linalg.eigvalsh(0.5 * (Lap + Lap.conj().T)))
    return spectra


def dense_laplacian_dims(cs, frame, conn, N, tol_rel=1e-8):
    """Kernel dimensions of the full-box Laplacians built from assemble_operator."""
    return tuple(int((ev < tol_rel * ev.max()).sum())
                 for ev in dense_laplacian_spectra(cs, frame, conn, N))


def dense_index_spectra(cs, frame, conn, N):
    """Singular values of the full-box D = dbar + dbar^*, even forms -> odd forms.

    D is assembled from assemble_operator and split by the connected
    components of its own sparsity pattern, not by the engine's grouping.
    Per component, the sorted singular values padded with zeros to its
    number of odd rows: the spectrum of DD^* there, in singular-value units.
    """
    n = frame.n
    At = normalized_operators(cs, frame, conn, N)
    blocks = [[At[q] if p == q + 1 else At[p].conj().T if p == q - 1 else None
               for q in range(0, n + 1, 2)] for p in range(1, n + 1, 2)]
    D = sp.bmat(blocks, format="csr")
    pattern = (D != 0).astype(np.int8)
    _, labels = connected_components(sp.bmat([[None, pattern], [pattern.T, None]]), directed=False)
    rows, cols = labels[:D.shape[0]], labels[D.shape[0]:]
    out = []
    for label in np.unique(rows):
        R, C = np.nonzero(rows == label)[0], np.nonzero(cols == label)[0]
        s = np.linalg.svd(D[R][:, C].toarray(), compute_uv=False) if C.size else np.zeros(0)
        out.append(np.sort(np.r_[s, np.zeros(R.size - s.size)]))
    return out


def record_collector_values(monkeypatch):
    """Every value each collector is fed, with multiplicities, keyed by id(collector)."""
    added = {}
    orig_add = dlb._Collector.add

    def record(self, values, mult=1):
        added.setdefault(id(self), []).append(np.repeat(values.reshape(-1), mult))
        return orig_add(self, values, mult)

    monkeypatch.setattr(dlb._Collector, "add", record)
    return added


def spy_paths(monkeypatch):
    """Count the batches that take the Hodge-rank and the Laplacian path."""
    calls = {"hodge": 0, "laplacian": 0}
    for name, key in (("_hodge_rank_spectra", "hodge"), ("_laplacian_spectra", "laplacian")):
        orig = getattr(dlb._Engine, name)

        def counted(self, *args, _orig=orig, _key=key):
            calls[_key] += 1
            return _orig(self, *args)

        monkeypatch.setattr(dlb._Engine, name, counted)
    return calls


def test_chain_engine_matches_dense(setup2, monkeypatch):
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    N = 2
    calls = spy_paths(monkeypatch)
    run = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    assert calls["hodge"] > 0 and calls["laplacian"] == 0
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims == (1, 2, 1)


def test_n3_chain_drops_surplus_zeros(monkeypatch):
    # at n = 3 the Gram unions for q = 1, 2 hold more values than dim C_q
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    frame = antihol_frame(cs)
    conn = gradient_connection(theta, frame, (1, 0, 0, 0, 0, 0), 0.6 + 0.2j)
    N = 1
    calls = spy_paths(monkeypatch)
    run = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    assert calls["hodge"] > 0 and calls["laplacian"] == 0
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims == (1, 3, 3, 1)


def test_flat_connection_whose_compression_is_no_complex(monkeypatch):
    # a path can leave the box along e1 and come back along t, so the
    # compressed operators of this exactly flat connection miss A_1 A_0 = 0
    theta = ThetaMatrix.product([0.31, 0.52])
    cs = random_complex_structure(2, np.random.default_rng(3))
    frame = antihol_frame(cs)
    e1, t = (1, 0, 0, 0), (-1, 0, 1, 0)
    we, wt = frame.W @ np.array(e1), frame.W @ np.array(t)
    terms = [MatrixElement(theta, [[FourierElement.monomial(theta, e1, we[j])
                                    + FourierElement.monomial(theta, t, wt[j])]])
             for j in range(2)]
    conn = dlb.FreeConnection(1, terms)
    assert dlb.flatness_curvature(conn, frame).max_abs == 0.0
    N = 2
    A0, A1 = (dlb.assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q) for q in (0, 1))
    assert abs(A1 @ A0).max() > 0.1
    calls = spy_paths(monkeypatch)
    run = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    assert calls["laplacian"] > 0 and calls["hodge"] == 0
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims
    # the Hodge-rank union would put a value inside the gap band here
    monkeypatch.setattr(dlb._Engine, "_forms_complex", lambda self, At: True)
    assert not dlb._box_run(cs, frame, conn, N, 1e-8, True, True).conclusive


def test_components_of_one_size_with_different_patterns(setup2, monkeypatch):
    # at N = 1 the steps (1,1,0,0) and (-1,0,-1,0) give components of sizes
    # 3 and 6 whose members leave the box in two different patterns per size
    theta, cs, frame = setup2
    conn = dlb.FreeConnection(1, [
        MatrixElement(theta, [[FourierElement.monomial(theta, (1, 1, 0, 0), 0.5)]]),
        MatrixElement(theta, [[FourierElement.monomial(theta, (-1, 0, -1, 0), 0.3)]]),
    ])
    N = 1
    batches = []
    orig = dlb._Engine._forms_complex

    def spy(self, At):
        # A_0 of a batch of g blocks of c modes has shape (g, n c r, c r), r = 1
        batches.append((At[0].shape[0], At[0].shape[-1]))
        return orig(self, At)

    monkeypatch.setattr(dlb._Engine, "_forms_complex", spy)
    added = record_collector_values(monkeypatch)
    engine = dlb._Engine(cs, frame, conn, N, 1e-8, True, False)
    run = engine.run()
    assert any(g >= 2 and c >= 2 for g, c in batches)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims
    # the whole spectrum of every degree, so a block built with another
    # component's pattern cannot hide behind a zero kernel
    for col, ref in zip(engine.lap, dense_laplacian_spectra(cs, frame, conn, N)):
        got = np.sort(np.concatenate(added[id(col)]))
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10 * ref[-1])


def oracle_block(ref, member, r, q, K):
    """Rows and columns of the full-box A_q for one component, in the engine's order.

    The engine indexes a block by (form, position, fiber), the oracle the
    whole box by (form, mode, fiber).
    """
    def index(C):
        return (np.arange(C)[:, None, None] * (K * r) + member[None, :, None] * r
                + np.arange(r)).reshape(-1)

    n = len(ref)
    return ref[q][index(math.comb(n, q + 1))][:, index(math.comb(n, q))].toarray()


def test_degree_operators_match_oracle_entries(monkeypatch):
    # n = 3, where the metric mixes the form indices (S~ has more nonzero
    # weights than the wedge signs); r = 2 with a non-scalar constant fiber
    # part that shares the diagonal with w, and one coupling along e1
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    frame = antihol_frame(cs)
    zero = FourierElement.zero(theta)
    e1 = FourierElement.monomial(theta, (1, 0, 0, 0, 0, 0), 0.7 - 0.2j)
    const = [np.diag([0.1, -0.3j]), np.array([[0.3 + 0.1j, 0.5], [0.0, -0.2j]]), np.zeros((2, 2))]
    terms = [MatrixElement.from_scalars(theta, c) for c in const]
    terms[0] = terms[0] + MatrixElement(theta, [[zero, zero], [e1, zero]])
    conn = dlb.FreeConnection(2, terms)
    N, r = 1, 2
    K = dlb.mode_count(6, N)
    ref = normalized_operators(cs, frame, conn, N)
    scale = max(abs(A).max() for A in ref)
    engine = dlb._Engine(cs, frame, conn, N, 1e-8, True, False)
    signs = dlb._wedge_signs(3, engine.forms)
    assert sum(np.count_nonzero(S) for row in engine.Stil for S in row) > \
        sum(np.count_nonzero(S) for row in signs for S in row)
    # the dense path: one batch of all 243 chains of three modes
    members = count_calls(monkeypatch, dlb._Engine, "_run_blocks")
    batches = count_calls(monkeypatch, dlb._Engine, "_forms_complex")
    engine.run()
    assert len(members) == len(batches) == 1
    ((_, blocks, _),), ((_, At),) = members, batches
    assert blocks.shape == (243, 3)
    for q in range(3):
        for i, member in enumerate(blocks):
            want = oracle_block(ref, member, r, q, K)
            assert np.allclose(At[q][i], want, rtol=0.0, atol=1e-12 * scale)
    # the sparse path: one CSR matrix per degree and component
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    components = count_calls(monkeypatch, dlb._Engine, "_sparse_component")
    operators = count_calls(monkeypatch, dlb._Engine, "_laplacians")
    dlb._Engine(cs, frame, conn, N, 1e-8, True, False).run()
    assert len(components) == len(operators) == 243
    for (_, member, _), (_, At, _, _) in zip(components, operators):
        for q in range(3):
            want = oracle_block(ref, member, r, q, K)
            assert np.allclose(At[q].toarray(), want, rtol=0.0, atol=1e-12 * scale)


def test_gradient_chain_cohomology(setup2):
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(4))
    assert rep.dims == (1, 2, 1)
    assert rep.stable
    assert rep.index == 0
    assert rep.alternating_sum() == 0


def test_rank2_gradient(setup2):
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (0, 1, 0, 0), 0.5 + 0.2j, rank=2)
    rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(3))
    assert rep.dims == (2, 4, 2)
    assert rep.stable


def test_index_examples(setup2):
    theta, cs, frame = setup2
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    res = dlb.index(cs, frame, conn, dlb.TruncationBox(3))
    assert res.index == 0 and res.stable
    # non-flat perturbation still has index zero
    u3 = MatrixElement(theta, [[FourierElement.monomial(theta, (0, 0, 1, 0), 0.4)]])
    u1 = MatrixElement(theta, [[FourierElement.monomial(theta, (1, 0, 0, 0), 0.7)]])
    conn2 = dlb.FreeConnection(1, [u3, u1])
    res2 = dlb.index(cs, frame, conn2, dlb.TruncationBox(2))
    assert res2.index == 0 and res2.conclusive


def test_sparse_fallback_matches_dense(setup2, monkeypatch):
    theta, cs, frame = setup2
    # two independent coupling directions make one big component
    u1 = MatrixElement(theta, [[FourierElement.monomial(theta, (1, 0, 0, 0), 0.3)]])
    u3 = MatrixElement(theta, [[FourierElement.monomial(theta, (0, 0, 1, 0), 0.2)]])
    conn = dlb.FreeConnection(1, [u1, u3])
    N = 1
    ref = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    sparse = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    assert sparse.dims == ref.dims
    assert sparse.ker_even == ref.ker_even


def test_defect_gate_does_not_stop_at_the_probe():
    # A_0 kills the all-ones probe vector, yet A_1 A_0 != 0
    engine = SimpleNamespace(tol_rel=1e-8)
    A0 = np.array([[[1.0, -1.0], [1.0, -1.0]]], dtype=complex)
    assert not dlb._Engine._forms_complex(engine, [A0, np.array([[[1.0, 0.0]]], dtype=complex)])
    assert dlb._Engine._forms_complex(engine, [A0, np.array([[[1.0, -1.0]]], dtype=complex)])


def four_direction_connection(theta):
    """Couples all four lattice directions: one component spans the box."""
    def mono(m, c):
        return FourierElement.monomial(theta, m, c)

    return dlb.FreeConnection(1, [
        MatrixElement(theta, [[mono((1, 0, 0, 0), 1.0) + mono((0, 1, 0, 0), 0.7)]]),
        MatrixElement(theta, [[mono((0, 0, 1, 0), 0.8) + mono((0, 0, 0, 1), 0.5)]]),
    ])


def count_lobpcg(monkeypatch, **overrides):
    """Wrap scipy's lobpcg, counting calls and overriding keyword arguments."""
    import scipy.sparse.linalg as spla

    orig = spla.lobpcg
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        return orig(*args, **{**kwargs, **overrides})

    monkeypatch.setattr(spla, "lobpcg", wrapped)
    return calls


def test_iterative_small_eigs_matches_eigvalsh(monkeypatch):
    # weighted path-graph Laplacian: PSD with a one-dimensional kernel
    n = 100
    w = 1.0 + 0.5 * np.sin(np.arange(n - 1))
    L = sp.diags([np.r_[w, 0.0] + np.r_[0.0, w], -w, -w], [0, 1, -1],
                 format="csr").astype(complex)
    calls = count_lobpcg(monkeypatch)
    vals, vmax, complete = dlb._iterative_small_eigs(L, 6, np.random.default_rng(0))
    ref = np.linalg.eigvalsh(L.toarray())
    assert calls and complete
    assert np.allclose(vals, ref[:6], rtol=0.0, atol=1e-10 * ref[-1])
    assert abs(vmax - ref[-1]) < 1e-7 * ref[-1]


def test_iterative_values_all_below_the_threshold_are_inconclusive():
    # the solver's block holds fewer values than the matrix and all sit below
    # the threshold, so more kernel candidates may lie beyond it: with no value
    # kept, the gap test alone would pass (cut <= thresh / _GAP_BAND)
    col = dlb._Collector(prov=0.16)
    col.add_iterative(np.array([1e-5, 2e-5]), vmax=1.0, complete=True, dim=10)
    kernel, cut, kept, conclusive = col.finalize(0.01)
    assert (kernel, cut, kept) == (2, 2e-5, math.inf)
    assert cut <= 0.01 / dlb._GAP_BAND
    assert not conclusive


def test_sparse_engine_matches_dense(setup2, monkeypatch):
    theta, cs, frame = setup2
    conn = four_direction_connection(theta)
    ref = dlb._box_run(cs, frame, conn, 1, 1e-8, True, True)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    calls = count_lobpcg(monkeypatch)
    sparse = dlb._box_run(cs, frame, conn, 1, 1e-8, True, True)
    assert calls
    assert ref.conclusive and sparse.conclusive
    assert sparse.dims == ref.dims
    assert sparse.ker_even == ref.ker_even


@pytest.mark.filterwarnings("ignore:Exited")
def test_unconverged_lobpcg_makes_report_inconclusive(setup2, monkeypatch):
    theta, cs, frame = setup2
    conn = four_direction_connection(theta)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    calls = count_lobpcg(monkeypatch, maxiter=1)
    res = dlb.index(cs, frame, conn, dlb.TruncationBox(1))
    assert calls
    assert not res.conclusive and not res.stable
    # the Laplacian-only run goes through the sparse path's Laplacian solves
    calls.clear()
    run = dlb._box_run(cs, frame, conn, 1, 1e-8, True, False)
    assert calls
    assert not run.conclusive


# -- the index spectrum: DD^* on the odd forms ------------------------------


def two_direction_connection(theta):
    """Non-flat, coupling e1 in direction 1 and e2 in direction 2, as in index-grid."""
    return dlb.FreeConnection(1, [
        MatrixElement(theta, [[FourierElement.monomial(theta, (1, 0, 0, 0), 1.1)]]),
        MatrixElement(theta, [[FourierElement.monomial(theta, (0, 1, 0, 0), 0.9j)]]),
    ])


@pytest.fixture(scope="module")
def setup3():
    """n = 3 with direction j coupling lattice axis 2j: non-flat, 27-mode components."""
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    axes = [tuple(int(i == k) for i in range(6)) for k in (0, 2, 4)]
    conn = dlb.FreeConnection(1, [MatrixElement(theta, [[FourierElement.monomial(theta, m, c)]])
                                  for m, c in zip(axes, (0.8, 0.6 - 0.3j, 0.5j))])
    return cs, antihol_frame(cs), conn


def index_values(monkeypatch, cs, frame, conn, N, want_dims):
    """A box run with the index wanted, and every value its collector is fed, sorted."""
    added = record_collector_values(monkeypatch)
    engine = dlb._Engine(cs, frame, conn, N, 1e-8, want_dims, True)
    run = engine.run()
    return run, np.sort(np.concatenate(added[id(engine.dsv)]))


def assert_matches_oracle(run, got, ref):
    assert got.shape == ref.shape
    assert np.allclose(got, ref, rtol=0.0, atol=1e-10 * ref.max())
    assert run.conclusive
    assert run.ker_even == int((ref < 1e-4 * ref.max()).sum())


@pytest.mark.parametrize("want_dims", [True, False])
def test_index_spectrum_matches_dense_oracle_n2(setup2, monkeypatch, want_dims):
    # DD^* = Delta_1 at n = 2, flat or not; here A_1 A_0 != 0 and D^*D is
    # not the sum of the even Laplacians
    theta, cs, frame = setup2
    conn = two_direction_connection(theta)
    assert not dlb.flatness_curvature(conn, frame).is_flat
    calls = spy_paths(monkeypatch)
    run, got = index_values(monkeypatch, cs, frame, conn, 2, want_dims)
    assert calls["laplacian"] > 0 and calls["hodge"] == 0
    assert_matches_oracle(run, got, np.sort(np.concatenate(dense_index_spectra(cs, frame, conn, 2))))


@pytest.mark.parametrize("want_dims", [True, False])
def test_index_spectrum_with_defect_blocks_matches_dense_oracle_n3(setup3, monkeypatch,
                                                                   want_dims):
    cs, frame, conn = setup3
    assert not dlb.flatness_curvature(conn, frame).is_flat
    calls = spy_paths(monkeypatch)
    run, got = index_values(monkeypatch, cs, frame, conn, 1, want_dims)
    assert calls["laplacian"] > 0 and calls["hodge"] == 0
    assert_matches_oracle(run, got, np.sort(np.concatenate(dense_index_spectra(cs, frame, conn, 1))))


def test_sparse_index_spectrum_matches_dense_oracle_n3(setup3, monkeypatch):
    cs, frame, conn = setup3
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    calls = count_lobpcg(monkeypatch)
    run, got = index_values(monkeypatch, cs, frame, conn, 1, False)
    assert calls
    comps = dense_index_spectra(cs, frame, conn, 1)
    # every 108 x 108 DD^* goes to LOBPCG for its 2 r 2^(n-1) + 6 = 14 smallest values
    assert {c.size for c in comps} == {108}
    small = np.sort(np.concatenate([c[:14] for c in comps]))
    ref = np.concatenate(comps)
    assert np.allclose(got, small, rtol=0.0, atol=1e-10 * ref.max())
    assert run.conclusive and run.ker_even == int((ref < 1e-4 * ref.max()).sum())


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name, keeping the positional arguments of each call."""
    orig = getattr(owner, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_laplacian_batches_solve_each_degree_once(setup2, monkeypatch):
    # both halves wanted at n = 2: the index reads the Delta_1 eigenvalues
    theta, cs, frame = setup2
    engine = dlb._Engine(cs, frame, two_direction_connection(theta), 2, 1e-8, True, True)
    paths = spy_paths(monkeypatch)
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    engine.run()
    assert paths["laplacian"] > 0 and paths["hodge"] == 0
    assert len(eigs) == (engine.n + 1) * paths["laplacian"]


def test_sparse_component_solves_each_degree_once(setup2, monkeypatch):
    theta, cs, frame = setup2
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    components = count_calls(monkeypatch, dlb._Engine, "_sparse_component")
    solves = count_calls(monkeypatch, dlb, "_iterative_small_eigs")
    run = dlb._box_run(cs, frame, four_direction_connection(theta), 1, 1e-8, True, True)
    assert len(components) == 1 and len(solves) == 3
    assert run.conclusive


def test_index_only_run_solves_only_delta1(setup2, monkeypatch):
    theta, cs, frame = setup2
    engine = dlb._Engine(cs, frame, two_direction_connection(theta), 2, 1e-8, False, True)
    batches = count_calls(monkeypatch, dlb._Engine, "_laplacian_spectra")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    engine.run()
    assert batches and len(eigs) == len(batches)
    for (_, (A0, A1), _), (M,) in zip(batches, eigs):
        delta1 = A0 @ A0.conj().swapaxes(-1, -2) + A1.conj().swapaxes(-1, -2) @ A1
        assert np.allclose(M, delta1, rtol=0.0, atol=1e-12 * np.abs(delta1).max())
    # one component spanning the box, in the oracle's basis order
    conn = four_direction_connection(theta)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    solves = count_calls(monkeypatch, dlb, "_iterative_small_eigs")
    assert dlb._box_run(cs, frame, conn, 1, 1e-8, False, True).conclusive
    A0, A1 = normalized_operators(cs, frame, conn, 1)
    delta1 = (A0 @ A0.conj().T + A1.conj().T @ A1).toarray()
    assert len(solves) == 1
    assert np.allclose(solves[0][0].toarray(), delta1, rtol=0.0, atol=1e-12 * np.abs(delta1).max())


def test_constant_fiber_matrices_match_dense(setup2):
    # commuting constant r=2 fiber terms: flat, mode-diagonal, nontrivial fibers
    theta, cs, frame = setup2
    A1 = np.array([[0.3 + 0.1j, 0.0], [0.0, -0.2j]])
    A2 = np.array([[0.1 - 0.4j, 0.0], [0.0, 0.25]])
    conn = dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, A1),
                                  MatrixElement.from_scalars(theta, A2)])
    assert dlb.flatness_curvature(conn, frame).is_flat
    N = 1
    run = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims


def scalar_fiber_connection(theta, shifts, rank):
    """a_j = c_j I_rank: constant and scalar on every fiber."""
    return dlb.FreeConnection(rank, [MatrixElement.from_scalars(theta, c * np.eye(rank))
                                     for c in shifts])


def lattice_shift(frame, m0):
    """The shift c = -2 pi i W m0 that moves the kernel to mode m0."""
    return list(-2j * math.pi * (frame.W @ np.array(m0)))


def test_rank2_scalar_shift_matches_dense(setup2):
    theta, cs, frame = setup2
    N = 1
    off = scalar_fiber_connection(theta, [0.37 + 0.21j, -0.13 + 0.52j], 2)
    run = dlb._box_run(cs, frame, off, N, 1e-8, True, True)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, off, N) == run.dims == (0, 0, 0)
    m0 = (1, 0, -1, 1)
    on = scalar_fiber_connection(theta, lattice_shift(frame, m0), 2)
    run = dlb._box_run(cs, frame, on, N, 1e-8, True, True)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, on, N) == run.dims == (2, 4, 2)
    assert run.kernel_modes_q0 == ((m0, 2),)


def test_chain_singletons_take_the_shifted_closed_form(setup2, monkeypatch):
    # a flat gradient chain along (1,1,0,0) plus a scalar shift on the lattice
    # point of a singleton mode: the singletons go through the closed form at
    # their flat indices, fed w + c
    theta, cs, frame = setup2
    s, m0 = (1, 1, 0, 0), (1, -1, 1, 0)
    ws, c = frame.W @ np.array(s), lattice_shift(frame, m0)
    terms = [MatrixElement(theta, [[FourierElement.monomial(theta, s, (0.6 - 0.2j) * ws[j])
                                    + FourierElement.monomial(theta, (0, 0, 0, 0), c[j])]])
             for j in range(2)]
    conn = dlb.FreeConnection(1, terms)
    assert dlb.flatness_curvature(conn, frame).is_flat
    subsets = []
    orig = dlb._Engine._run_koszul_modes

    def spy(self, flat_idx):
        subsets.append(flat_idx)
        return orig(self, flat_idx)

    monkeypatch.setattr(dlb._Engine, "_run_koszul_modes", spy)
    for N in (1, 2):
        subsets.clear()
        run = dlb._box_run(cs, frame, conn, N, 1e-8, True, True)
        assert len(subsets) == 1 and 0 < subsets[0].size < dlb.mode_count(4, N)
        assert run.conclusive
        assert dense_laplacian_dims(cs, frame, conn, N) == run.dims == (1, 2, 1)
        if N == 1:
            assert run.kernel_modes_q0 == ((m0, 1),)


def test_n3_lattice_shift_kernel_in_a_later_slab(monkeypatch):
    # the N + 2 = 6 box holds 13^6 modes, more than one slab; the kernel mode
    # has last coordinate +3, past the first slab
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    frame = antihol_frame(cs)
    m0 = (1, 0, -1, 0, 2, 3)
    conn = dlb.FreeConnection.scalar_shift(theta, lattice_shift(frame, m0))
    rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(4))
    assert rep.dims == (1, 3, 3, 1)
    assert rep.stable and rep.conclusive
    assert rep.kernel_modes_q0 == ((m0, 1),)
    starts = []
    orig = dlb._Engine._box_koszul_eigenvalues

    def spy(self):
        for start, lam in orig(self):
            starts.append(start)
            yield start, lam

    monkeypatch.setattr(dlb._Engine, "_box_koszul_eigenvalues", spy)
    run = dlb._box_run(cs, frame, conn, 6, 1e-8, True, False)
    flat0 = sum((m + 6) * 13 ** k for k, m in enumerate(m0))
    assert len(starts) > 1 and flat0 >= starts[1]
    assert run.dims == (1, 3, 3, 1) and run.conclusive
    assert run.kernel_modes_q0 == ((m0, 1),)


def test_only_non_scalar_constant_fibers_assemble_blocks(setup2, monkeypatch):
    theta, cs, frame = setup2

    def refuse(self, *args):
        raise AssertionError("dense blocks assembled")

    monkeypatch.setattr(dlb._Engine, "_run_blocks", refuse)
    for conn in (dlb.FreeConnection.scalar_shift(theta, [0.37 + 0.21j, -0.13 + 0.52j]),
                 scalar_fiber_connection(theta, [0.2j, 0.5 - 0.1j], 2)):
        assert dlb._box_run(cs, frame, conn, 2, 1e-8, True, True).conclusive
    diagonal = dlb.FreeConnection(2, [
        MatrixElement.from_scalars(theta, np.diag([0.3 + 0.1j, -0.2j])),
        MatrixElement.from_scalars(theta, np.diag([0.1 - 0.4j, 0.25])),
    ])
    with pytest.raises(AssertionError, match="dense blocks assembled"):
        dlb._box_run(cs, frame, diagonal, 2, 1e-8, True, True)


def test_index_n3():
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    frame = antihol_frame(cs)
    conn = dlb.FreeConnection.trivial(theta, 3, 1)
    res = dlb.index(cs, frame, conn, dlb.TruncationBox(2))
    assert res.index == 0 and res.stable


def test_kunneth_convolution():
    assert dlb.kunneth_dims((1, 1), (1, 1)) == (1, 2, 1)
    assert dlb.kunneth_dims((2, 0), (1, 1)) == (2, 2, 0)
    assert dlb.kunneth_dims((3, 1, 4), (1,)) == (3, 1, 4)
    assert dlb.kunneth_dims((0, 0), (1, 1)) == (0, 0, 0)


def test_kunneth_with_vanishing_factor():
    # a shift on the first factor only: (0,0) x (1,1) = (0,0,0)
    theta = ThetaMatrix.product([0.31, 0.52])
    J = np.zeros((4, 4))
    J[:2, :2] = j_from_tau(0.2 + 1.1j).J
    J[2:, 2:] = j_from_tau(-0.4 + 0.8j).J
    cs = ComplexStructure(2, J)
    frame = block_adapted_frame(cs)
    conn = dlb.FreeConnection.scalar_shift(theta, [0.37 + 0.29j, 0.0])
    rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(3))
    th1 = ThetaMatrix.elliptic(0.31)
    cs1 = ComplexStructure(1, J[:2, :2])
    rep1 = dlb.cohomology_dims(cs1, antihol_frame(cs1),
                               dlb.FreeConnection.scalar_shift(th1, [0.37 + 0.29j]),
                               dlb.TruncationBox(3))
    assert rep1.dims == (0, 0)
    assert rep.dims == dlb.kunneth_dims(rep1.dims, (1, 1)) == (0, 0, 0)


def test_kunneth_matches_product_torus():
    theta = ThetaMatrix.product([0.31, 0.52])
    rng = np.random.default_rng(23)
    taus = [0.2 + 1.1j, -0.4 + 0.8j]
    J = np.zeros((4, 4))
    small = []
    for i, tau in enumerate(taus):
        csi = j_from_tau(tau)
        small.append(csi)
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = csi.J
    cs = ComplexStructure(2, J)
    frame = antihol_frame(cs)
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    rep2d = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(3))
    factors = []
    for i, tau in enumerate(taus):
        th1 = ThetaMatrix.elliptic([0.31, 0.52][i])
        fr1 = antihol_frame(small[i])
        rep1 = dlb.cohomology_dims(small[i], fr1, dlb.FreeConnection.trivial(th1, 1, 1),
                                   dlb.TruncationBox(3))
        factors.append(rep1.dims)
    assert dlb.kunneth_dims(*factors) == rep2d.dims == (1, 2, 1)


# -- pushforward ---------------------------------------------------------


def block_setup(theta_small_val=0.37, seed=31):
    rng = np.random.default_rng(seed)
    theta_small = ThetaMatrix.elliptic(theta_small_val)
    tau1 = 0.1 + 1.3j
    cs1 = j_from_tau(tau1)
    cs2 = random_complex_structure(1, rng)
    J = np.zeros((4, 4))
    J[:2, :2] = cs1.J
    J[2:, 2:] = cs2.J
    cs_big = ComplexStructure(2, J)
    ent = rng.uniform(-0.5, 0.5, (4, 4))
    theta_entries = np.triu(ent, 1) - np.triu(ent, 1).T
    theta_entries[0, 1], theta_entries[1, 0] = theta_small_val, -theta_small_val
    theta_big = ThetaMatrix(theta_entries)
    return theta_small, cs1, theta_big, cs_big


def test_pushforward_trivial():
    theta_small, cs1, theta_big, cs_big = block_setup()
    frame_big = block_adapted_frame(cs_big)
    conn_small = dlb.FreeConnection.trivial(theta_small, 1, 1)
    pushed = dlb.pushforward_connection(theta_small, conn_small, theta_big, cs_big, frame_big)
    assert all(t.is_zero() for t in pushed.terms)
    rep_big = dlb.cohomology_dims(cs_big, frame_big, pushed, dlb.TruncationBox(3))
    fr1 = antihol_frame(cs1)
    rep_small = dlb.cohomology_dims(cs1, fr1, conn_small, dlb.TruncationBox(3))
    assert rep_small.dims[0] == 1 and rep_big.dims[0] == 1


def test_pushforward_shift_cases():
    theta_small, cs1, theta_big, cs_big = block_setup()
    frame_big = block_adapted_frame(cs_big)
    fr1 = antihol_frame(cs1)
    # off-lattice shift: zero sections on both sides
    off = dlb.FreeConnection.scalar_shift(theta_small, [0.29 + 0.41j])
    pushed = dlb.pushforward_connection(theta_small, off, theta_big, cs_big, frame_big)
    small = dlb.cohomology_dims(cs1, fr1, off, dlb.TruncationBox(3))
    big = dlb.cohomology_dims(cs_big, frame_big, pushed, dlb.TruncationBox(3))
    assert small.dims[0] == 0 and big.dims[0] == 0
    # on-lattice shift: one section on both sides
    svec = np.array([1, -1])
    c = complex(-2j * math.pi * (fr1.W @ svec)[0])
    on = dlb.FreeConnection.scalar_shift(theta_small, [c])
    pushed_on = dlb.pushforward_connection(theta_small, on, theta_big, cs_big, frame_big)
    small_on = dlb.cohomology_dims(cs1, fr1, on, dlb.TruncationBox(3))
    big_on = dlb.cohomology_dims(cs_big, frame_big, pushed_on, dlb.TruncationBox(3))
    assert small_on.dims[0] == 1
    assert big_on.dims[0] >= small_on.dims[0]


def test_pushforward_flatness_preserved():
    theta_small, cs1, theta_big, cs_big = block_setup()
    frame_big = block_adapted_frame(cs_big)
    fr1 = antihol_frame(cs1)
    grad = gradient_connection(theta_small, fr1, (2, 1), 0.4 - 0.6j)
    pushed = dlb.pushforward_connection(theta_small, grad, theta_big, cs_big, frame_big)
    assert dlb.flatness_curvature(pushed, frame_big).is_flat
    big = dlb.cohomology_dims(cs_big, frame_big, pushed, dlb.TruncationBox(3))
    small = dlb.cohomology_dims(cs1, fr1, grad, dlb.TruncationBox(3))
    assert big.dims[0] >= small.dims[0]


def test_pushforward_preconditions():
    theta_small, cs1, theta_big, cs_big = block_setup()
    frame_big = block_adapted_frame(cs_big)
    conn = dlb.FreeConnection.trivial(theta_small, 1, 1)
    dense_cs = random_complex_structure(2, np.random.default_rng(1))
    with pytest.raises(dlb.HypothesisError):
        dlb.pushforward_connection(theta_small, conn, theta_big, dense_cs,
                                   antihol_frame(dense_cs))
    bad_theta = ThetaMatrix.product([0.9, 0.1])
    with pytest.raises(dlb.HypothesisError):
        dlb.pushforward_connection(theta_small, conn, bad_theta, cs_big, frame_big)


def test_operator_export(setup2):
    theta, cs, frame = setup2
    conn = dlb.FreeConnection.trivial(theta, 2, 1)
    rows = dlb.export_operator_coo(cs, frame, conn, dlb.TruncationBox(1), 0)
    K = dlb.mode_count(4, 1)
    assert all(len(t) == 4 for t in rows)
    assert len(rows) <= 2 * K
    # diagonal structure: column index determines mode, rows live in the two targets
    assert rows == sorted(rows, key=lambda t: (t[0], t[1]))
