import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import nctorus.dolbeault as dlb
from _oracles import assemble_operator, export_operator_coo
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


def test_connection_refuses_non_finite_coefficients(setup2):
    theta, cs, frame = setup2
    with pytest.raises(ValueError, match="finite"):
        dlb.FreeConnection.scalar_shift(theta, [float("nan"), 0.3])
    with pytest.raises(ValueError, match="finite"):
        dlb.FreeConnection(1, [MatrixElement(theta, [[FourierElement.monomial(
            theta, (1, 0, 0, 0), complex(0.2, math.inf))]]), MatrixElement.zeros(theta, 1)])


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
    A0 = assemble_operator(cs, frame, conn, dlb.TruncationBox(2), 0)
    A1 = assemble_operator(cs, frame, conn, dlb.TruncationBox(2), 1)
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
        A = assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q).toarray()
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


def test_kernel_modes_q0_attribute_hundreds_of_kernel_modes():
    # a loose tolerance puts hundreds of modes in the kernel; the collector
    # keeps the mode of every value, so the counts add up to dims[0]
    theta = ThetaMatrix.product([0.31])
    cs = random_complex_structure(1, np.random.default_rng(17))
    frame = antihol_frame(cs)
    conn = dlb.FreeConnection.trivial(theta, 1, 1)
    run = dlb._Engine(cs, frame, conn, 0.3).run(12, True, False)
    assert run.dims[0] > 256
    assert sum(c for _, c in run.kernel_modes_q0) == run.dims[0]
    # at 0.02 more than 256 modes sit below the provisional cutoff but only
    # 35 below the threshold, and only those are attributed
    for tol_rel in (0.01, 0.02):
        run = dlb._Engine(cs, frame, conn, tol_rel).run(12, True, False)
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
        A = assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q)
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


def kernel_dims(spectra, tol_rel=1e-8):
    """Per degree, the eigenvalues below tol_rel times the largest."""
    return tuple(int((ev < tol_rel * ev.max()).sum()) for ev in spectra)


def dense_laplacian_dims(cs, frame, conn, N, tol_rel=1e-8):
    """Kernel dimensions of the full-box Laplacians built from assemble_operator."""
    return kernel_dims(dense_laplacian_spectra(cs, frame, conn, N), tol_rel)


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


def in_unit(col, values):
    """Raw eigenvalues in col's reporting unit: sqrt(max(lambda, 0)) or |lambda|."""
    return np.sqrt(np.maximum(values, 0.0)) if col.singular else np.abs(values)


def record_collector_values(monkeypatch):
    """Every value each collector is fed, in its reporting unit and with multiplicities,
    keyed by id(collector)."""
    added = {}
    orig_feed = dlb._feed

    def record(feeds, values, modes_at=None):
        for col, mult, _ in feeds:
            added.setdefault(id(col), []).append(np.repeat(in_unit(col, values.reshape(-1)), mult))
        return orig_feed(feeds, values, modes_at)

    monkeypatch.setattr(dlb, "_feed", record)
    return added


def feed(col, values):
    """Feed values of multiplicity one to the collector col alone."""
    dlb._feed([(col, 1, False)], values)


def solve_every_block(monkeypatch):
    """Make every dense eigensolve take its whole batch, so collectors see whole spectra.

    Both skips, by bounds and by the Cholesky certificate, are made by _pick.
    """
    monkeypatch.setattr(dlb._Engine, "_pick",
                        lambda self, lo, hi, least, most, feeds, dense=None: np.arange(lo.size))


def record_picks(monkeypatch):
    """Every _pick as (source, picked indices, blocks read, blocks made dense).

    source is "modes" (_mode_bounds), "discs" (_spectral_bounds of a formed
    matrix) or "certificate" (the staged pick of a wide matrix, which makes
    the blocks it tests dense).
    """
    picks, discs = [], record_results(monkeypatch, dlb, "_spectral_bounds")
    orig = dlb._Engine._pick

    def wrapped(self, lo, *rest, dense=None):
        made = []
        if dense is None:
            idx = orig(self, lo, *rest)
        else:
            idx = orig(self, lo, *rest, dense=lambda at: made.append(len(at)) or dense(at))
        source = "certificate" if dense else "discs" if any(lo is b[0] for b in discs) else "modes"
        picks.append((source, idx, lo.size, sum(made)))
        return idx

    monkeypatch.setattr(dlb._Engine, "_pick", wrapped)
    return picks


def test_chain_engine_matches_dense(setup2):
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    N = 2
    run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims == (1, 2, 1)


def n3_chain(step):
    """The flat n = 3 gradient chain along step, with its complex structure and frame."""
    theta = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs = random_complex_structure(3, np.random.default_rng(33))
    frame = antihol_frame(cs)
    return cs, frame, gradient_connection(theta, frame, step, 0.6 + 0.2j)


@pytest.mark.parametrize("step", [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)])
def test_n3_chains_take_the_laplacian_path(monkeypatch, step):
    # every batch takes the Laplacians; the diagonal step also makes chains
    # of 1, 2 and 3 modes
    cs, frame, conn = n3_chain(step)
    N = 1
    run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    assert run.conclusive
    ref = dense_laplacian_spectra(cs, frame, conn, N)
    assert kernel_dims(ref) == run.dims == (1, 3, 3, 1)
    # the whole spectrum of every degree
    added = record_collector_values(monkeypatch)
    solve_every_block(monkeypatch)
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    engine.run(N, True, True)
    for col, want in zip(engine.lap, ref):
        got = np.sort(np.concatenate(added[id(col)]))
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-10 * want[-1])


def test_few_n3_blocks_reach_the_eigensolver(monkeypatch):
    # one N = 2 box run of the n = 3 e1 chain with both halves: 3125 chains
    # of 5 modes in one batch, four Delta_q and the odd block matrix each;
    # the box's one mode pick sees every chain and few are assembled
    cs, frame, conn = n3_chain((1, 0, 0, 0, 0, 0))
    bounds = record_results(monkeypatch, dlb._Engine, "_mode_bounds")
    picks = record_picks(monkeypatch)
    assembled = count_calls(monkeypatch, dlb._Engine, "_degree_operators")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    run = dlb._Engine(cs, frame, conn, 1e-8).run(2, True, True)
    assert run.dims == (1, 3, 3, 1) and run.conclusive
    assert [lo.size for lo, *_ in bounds] == [3125]
    assert [source for source, *_ in picks].count("modes") == 1
    assert 0 < sum(len(mvec) for (_, mvec, _) in assembled) < 0.02 * 3125
    blocks = 5 * 3125
    # every eigensolve is a batched one (the identity metric is not eigensolved)
    assert all(M.ndim == 3 for (M,) in eigs)
    assert sum(len(M) for (M,) in eigs) < 0.05 * blocks


def test_flat_connection_whose_compression_is_no_complex():
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
    A0, A1 = (assemble_operator(cs, frame, conn, dlb.TruncationBox(N), q) for q in (0, 1))
    assert abs(A1 @ A0).max() > 0.1
    run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims


def test_components_of_one_size_with_different_patterns(setup2, monkeypatch):
    # at N = 1 the steps (1,1,0,0) and (-1,0,-1,0) give components of sizes
    # 3 and 6 whose members leave the box in two different patterns per size
    theta, cs, frame = setup2
    conn = dlb.FreeConnection(1, [
        MatrixElement(theta, [[FourierElement.monomial(theta, (1, 1, 0, 0), 0.5)]]),
        MatrixElement(theta, [[FourierElement.monomial(theta, (-1, 0, -1, 0), 0.3)]]),
    ])
    N = 1
    # mvec holds the coordinates of a batch of g blocks of c modes each
    batches = count_calls(monkeypatch, dlb._Engine, "_degree_operators")
    added = record_collector_values(monkeypatch)
    solve_every_block(monkeypatch)
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    run = engine.run(N, True, False)
    assert any(mvec.shape[0] >= 2 and mvec.shape[1] >= 2 for (_, mvec, _) in batches)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims
    # the whole spectrum of every degree, so a block built with another
    # component's pattern cannot hide behind a zero kernel
    for col, ref in zip(engine.lap, dense_laplacian_spectra(cs, frame, conn, N)):
        got = np.sort(np.concatenate(added[id(col)]))
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10 * ref[-1])


class _GraphTaken(Exception):
    """Stops a box run once its coupling graph is recorded."""


def coupling_graph(monkeypatch, cs, frame, conn, N):
    """The (K, src, dst) that a box run hands to _components."""
    graphs = []

    def record(K, src, dst):
        graphs.append((K, np.array(src), np.array(dst)))
        raise _GraphTaken

    with monkeypatch.context() as patch, pytest.raises(_GraphTaken):
        patch.setattr(dlb, "_components", record)
        dlb._Engine(cs, frame, conn, 1e-8).run(N, False, True)
    return graphs[0]


def scipy_components(K, src, dst):
    adj = sp.csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(K, K))
    return connected_components(adj, directed=False)[1]


def test_components_match_scipy_labels(setup2, monkeypatch):
    theta, cs, frame = setup2
    # the five hodge-chain steps at N = 4 and 6 are one-step boxes, laid
    # out by _chains without _components: their labels equal scipy's
    for s in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, -1)):
        for M in (4, 6):
            K = dlb.mode_count(4, M)
            targets = dlb._box_targets([s], 4, M)[0]
            ok = targets >= 0
            grouped, _, sizes, _ = dlb._chains([s], 4, M)
            labels = np.empty(K, dtype=np.int64)
            labels[grouped] = np.repeat(np.arange(sizes.size), sizes)
            assert np.array_equal(labels, scipy_components(K, np.flatnonzero(ok), targets[ok]))
    graphs = []
    # the two-direction index-grid connection at N = 2, at N and N + 2
    graphs += [coupling_graph(monkeypatch, cs, frame, two_direction_connection(theta), M)
               for M in (2, 4)]
    # n = 3 with two steps, one of them diagonal
    theta3 = ThetaMatrix.product([0.31, 0.47, 0.23])
    cs3 = random_complex_structure(3, np.random.default_rng(33))
    two_steps = dlb.FreeConnection(1, [
        MatrixElement(theta3, [[FourierElement.monomial(theta3, (1, 0, 0, 0, 0, 0), 0.8)]]),
        MatrixElement(theta3, [[FourierElement.monomial(theta3, (0, 1, 1, 0, 0, 0), 0.5j)]]),
        MatrixElement.zeros(theta3, 1),
    ])
    graphs.append(coupling_graph(monkeypatch, cs3, antihol_frame(cs3), two_steps, 2))
    # a path visited in shuffled order, which takes many hooking rounds
    perm = np.random.default_rng(7).permutation(10 ** 4)
    graphs.append((10 ** 4, perm[:-1], perm[1:]))
    # isolated nodes and repeated edges, in both directions; no edges at all
    graphs.append((12, np.array([3, 7, 3, 9, 9, 1]), np.array([7, 3, 7, 10, 10, 2])))
    graphs.append((5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
    assert len(graphs) == 2 + 4
    for K, src, dst in graphs:
        # equal labels, not equal up to renaming: batches keep their order
        assert np.array_equal(dlb._components(K, src, dst), scipy_components(K, src, dst))


def group_sizes(monkeypatch):
    """The number of keys of every _group call."""
    sizes, orig = [], dlb._group

    def wrapped(keys):
        sizes.append(keys.size)
        return orig(keys)

    monkeypatch.setattr(dlb, "_group", wrapped)
    return sizes


def test_one_step_boxes_take_no_union_find_and_no_label_sort(setup2, monkeypatch):
    # the e1, diagonal and reversed n = 2 chains and the n = 3 e1 chain: no
    # _components call, and no _group call on the box's K mode labels
    theta, cs, frame = setup2
    runs = [(cs, frame, gradient_connection(theta, frame, s, 0.8 - 0.3j), 2)
            for s in ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, -1))]
    runs.append((*n3_chain((1, 0, 0, 0, 0, 0)), 1))

    def refuse(*args):
        raise AssertionError("a one-step box reached _components")

    with monkeypatch.context() as patch:
        patch.setattr(dlb, "_components", refuse)
        keys = group_sizes(patch)
        for cs_, frame_, conn, N in runs:
            keys.clear()
            run = dlb._Engine(cs_, frame_, conn, 1e-8).run(N, True, True)
            assert run.conclusive and run.dims == {2: (1, 2, 1), 3: (1, 3, 3, 1)}[cs_.n]
            assert dlb.mode_count(2 * cs_.n, N) not in keys
    # the spy sees the label sort where it is taken: two steps still sort K labels
    keys = group_sizes(monkeypatch)
    dlb._Engine(cs, frame, two_direction_connection(theta), 1e-8).run(2, False, True)
    assert dlb.mode_count(4, 2) in keys


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
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    signs = dlb._wedge_signs(3, engine.forms)
    assert sum(np.count_nonzero(S) for row in engine.Stil for S in row) > \
        sum(np.count_nonzero(S) for row in signs for S in row)
    # the dense path: one batch of all 243 chains of three modes, every one assembled
    members = count_calls(monkeypatch, dlb._Engine, "_run_blocks")
    batches = count_calls(monkeypatch, dlb._Engine, "_spectra")
    solve_every_block(monkeypatch)
    engine.run(N, True, False)
    assert len(members) == len(batches) == 1
    ((_, blocks, _),), ((_, ops),) = members, batches
    assert blocks.shape == (243, 3)
    for q in range(3):
        A = ops[q].dense()
        for i, member in enumerate(blocks):
            want = oracle_block(ref, member, r, q, K)
            assert np.allclose(A[i], want, rtol=0.0, atol=1e-12 * scale)
    # the sparse path: the same operators with one block per component
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    components = count_calls(monkeypatch, dlb._Engine, "_sparse_component")
    operators = count_calls(monkeypatch, dlb._Engine, "_spectra")
    dlb._Engine(cs, frame, conn, 1e-8).run(N, True, False)
    assert len(components) == len(operators) == 243
    for (_, member, _), (_, ops) in zip(components, operators):
        for q in range(3):
            want = oracle_block(ref, member, r, q, K)
            (A,) = ops[q].dense()
            assert np.allclose(A, want, rtol=0.0, atol=1e-12 * scale)


def test_connection_data_places_every_coefficient():
    # rank 2, n = 2: a constant part and two steps, every coefficient distinct
    # and the fiber entries off the diagonal one-sided, so a transposed or
    # misplaced coefficient shows
    theta = generic_theta4()
    zero, e1, e3 = (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, -1)
    coeffs = {(0, 0, 0, zero): 0.3 + 0.1j, (0, 0, 1, zero): -0.2j, (0, 1, 0, e1): 0.7,
              (0, 1, 1, e3): 0.4 - 0.5j, (1, 0, 0, e3): 1.1j, (1, 1, 0, zero): -0.6,
              (1, 0, 1, e1): 0.25 + 0.8j, (1, 1, 1, e1): -0.9 + 0.1j}
    terms = [MatrixElement(theta, [[FourierElement(theta, {m: c for (jj, a, b, m), c
                                                         in coeffs.items()
                                                         if (jj, a, b) == (j, i2, i1)})
                                    for i1 in range(2)] for i2 in range(2)])
             for j in range(2)]
    steps, coef = dlb._connection_data(dlb.FreeConnection(2, terms))
    assert steps[0] == zero
    assert steps[1:] == sorted(steps[1:]) == [e3, e1]
    want = np.zeros((3, 2, 2, 2), dtype=complex)
    for (j, i2, i1, m), c in coeffs.items():
        want[steps.index(m), j, i2, i1] = c
    assert np.array_equal(coef, want)


def test_degree_operators_write_each_direction_where_its_weight_is_nonzero(monkeypatch):
    # index-grid shape: a product J, so S~[j][q] is as sparse as the wedge
    # signs, and the two directions coupled along different steps, so T_0 and
    # T_1 differ in their positions
    theta = generic_theta4()
    cs, frame = product_structure()
    conn = two_direction_connection(theta)
    N = 2
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    signs = dlb._wedge_signs(2, engine.forms)
    for St, sg in zip(engine.Stil, signs):
        assert all(np.array_equal(a != 0, b != 0) for a, b in zip(St, sg))
    calls = []
    orig = dlb._Engine._degree_operators

    def spy(self, mvec, pattern):
        calls.append((mvec, orig(self, mvec, pattern)))
        return calls[-1][1]

    monkeypatch.setattr(dlb._Engine, "_degree_operators", spy)
    engine.run(N, False, True)
    assert calls
    # at n = 2 row block j of the oracle's A_0 is T_j; every T_j also holds
    # its frequency on the diagonal, which vanishes at mode 0
    K = dlb.mode_count(4, N)
    oracle = assemble_operator(cs, frame, conn, dlb.TruncationBox(N), 0).tocsr()
    for mvec, ops in calls:
        for block in mvec:
            member = (block + N) @ dlb._radix(4, N)
            c = member.size
            T = [np.nonzero(np.eye(c, dtype=bool)
                            | (oracle[j * K + member][:, member].toarray() != 0))
                 for j in range(2)]
            for q, A in enumerate(ops):
                keys = A.rows * A.shape[1] + A.cols
                assert np.unique(keys).size == keys.size
                want = {(b * c + i, a * c + k)
                        for j in range(2) for b, a in zip(*np.nonzero(engine.Stil[j][q]))
                        for i, k in zip(*T[j])}
                assert set(zip(A.rows.tolist(), A.cols.tolist())) == want


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
    ref = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    sparse = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    assert sparse.dims == ref.dims
    assert sparse.ker_even == ref.ker_even


def sparse_batch(blocks):
    """Dense (g, rows, cols) blocks as _Sparse, every position an entry."""
    M = np.array(blocks, dtype=complex)
    rows, cols = np.indices(M.shape[1:]).reshape(2, -1)
    return dlb._Sparse(rows, cols, M.shape[1:], M.reshape(len(M), -1))


# -- the batched sparse product ------------------------------------------------


def random_sparse(rng, g, shape, nnz, rows=None, cols=None):
    """_Sparse at nnz random positions drawn with repeats, and its dense oracle.

    The values drawn at one position are summed in the oracle, and the
    _Sparse holds each position once with the oracle's value.  rows and
    cols, if given, are the indices the positions are drawn from.
    """
    rows = rng.choice(np.arange(shape[0]) if rows is None else rows, nnz)
    cols = rng.choice(np.arange(shape[1]) if cols is None else cols, nnz)
    values = rng.standard_normal((g, nnz)) + 1j * rng.standard_normal((g, nnz))
    dense = np.zeros((g,) + shape, dtype=complex)
    for k in range(nnz):
        dense[:, rows[k], cols[k]] += values[:, k]
    rows, cols = np.unique(np.stack([rows, cols]), axis=1)
    return dlb._Sparse(rows, cols, shape, dense[:, rows, cols]), dense


def assert_dense_close(X, want):
    assert X.dense().shape == want.shape
    assert np.abs(X.dense() - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("g", [1, 4])
def test_sparse_product_matches_matmul(g):
    rng = np.random.default_rng(20 + g)
    X, Xd = random_sparse(rng, g, (6, 9), 30)
    Y, Yd = random_sparse(rng, g, (9, 4), 20)
    # positions drawn with repeats: some values are summed before any product
    assert X.rows.size < 30 and Y.rows.size < 20
    assert_dense_close(X, Xd)
    assert_dense_close(dlb._product([(X, Y, 0, 0)]), Xd @ Yd)
    # the adjoint swaps the index arrays and conjugates the values
    XdH = Xd.conj().swapaxes(-1, -2)
    assert_dense_close(X.H, XdH)
    assert_dense_close(dlb._product([(X.H, X, 0, 0), (Y, Y.H, 0, 0)]),
                       XdH @ Xd + Yd @ Yd.conj().swapaxes(-1, -2))
    # other values on the same patterns
    X2 = dlb._Sparse(X.rows, X.cols, X.shape, rng.standard_normal(X.values.shape) + 0j)
    assert_dense_close(dlb._product([(X2, Y, 0, 0)]), X2.dense() @ Yd)
    # no column of Z meets a row of W: an empty product
    Z, Zd = random_sparse(rng, g, (5, 8), 12, cols=np.arange(4))
    W, Wd = random_sparse(rng, g, (8, 3), 10, rows=np.arange(4, 8))
    empty = dlb._product([(Z, W, 0, 0)])
    assert empty.values.shape == (g, 0)
    assert_dense_close(empty, Zd @ Wd)
    # terms placed at offsets, as in the odd block matrix: B^* B for B = [X | V]
    V, Vd = random_sparse(rng, g, (6, 5), 15)
    terms = [(X.H, X, 0, 0), (X.H, V, 0, 9), (V.H, X, 9, 0), (V.H, V, 9, 9)]
    B = np.concatenate([Xd, Vd], axis=-1)
    assert_dense_close(dlb._product(terms), B.conj().swapaxes(-1, -2) @ B)
    # more blocks than one slice of 2M paired values holds, and a count that
    # leaves a partial last slice
    shape = (10 * g + 37, 40, 40)
    Fd, Hd = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    F, H = sparse_batch(Fd), sparse_batch(Hd)
    pairs = dlb._pairs(F.cols, H.rows)[0].size
    step = 2_000_000 // pairs
    assert len(F) * pairs > 2_000_000 and len(F) % step
    assert_dense_close(dlb._product([(F, H, 0, 0)]), Fd @ Hd)


def test_laplacians_match_dense_products(setup3, monkeypatch):
    # n = 3 with the index wanted: every Delta_q and the odd block matrix
    # [[Delta_1, (A_2 A_1)^*], [A_2 A_1, Delta_3]] of one batch
    cs, frame, conn = setup3
    batches = count_calls(monkeypatch, dlb._Engine, "_spectra")
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    engine.run(1, True, True)
    (_, ops) = batches[0]
    A = [op.dense() for op in ops]
    AH = [a.conj().swapaxes(-1, -2) for a in A]
    delta = [sum(t) for t in ([AH[0] @ A[0]], [AH[1] @ A[1], A[0] @ AH[0]],
                              [AH[2] @ A[2], A[1] @ AH[1]], [A[2] @ AH[2]])]
    spectra = list(engine._spectra(ops))
    assert [feeds for _, feeds in spectra] == \
        [[(col, 1, q == 0)] for q, col in enumerate(engine.lap)] + [[(engine.dsv, 1, False)]]
    mats = [dlb._product(terms) for terms, _ in spectra]
    for q in range(4):
        assert_dense_close(mats[q], delta[q])
    E = A[2] @ A[1]
    assert_dense_close(mats[4], np.block([[delta[1], E.conj().swapaxes(-1, -2)],
                                          [E, delta[3]]]))


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


def test_iterative_small_eigs_starts_off_the_kernel():
    # the unweighted path Laplacian has the all-ones vector in its kernel, so
    # eigsh started from it sees an invariant subspace ("starting vector is zero")
    n = 200
    L = sp.diags([np.r_[1.0, 2.0 * np.ones(n - 2), 1.0], -np.ones(n - 1), -np.ones(n - 1)],
                 [0, 1, -1], format="csr").astype(complex)
    vals, vmax, complete = dlb._iterative_small_eigs(L, 6, np.random.default_rng(0))
    ref = np.linalg.eigvalsh(L.toarray())
    assert complete
    assert np.allclose(vals, ref[:6], rtol=0.0, atol=1e-10 * ref[-1])
    assert abs(vmax - ref[-1]) < 1e-7 * ref[-1]


def test_arpack_error_leaves_the_values_uncomputed(monkeypatch):
    import scipy.sparse.linalg as spla

    def fail(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", fail)
    L = sp.identity(100, dtype=complex, format="csr")
    vals, _, complete = dlb._iterative_small_eigs(L, 6, np.random.default_rng(0))
    assert vals.size == 0 and not complete
    col = dlb._Collector(prov=0.5)
    dlb._add_iterative([(col, 1, False)], vals, 0.0, complete, 100)
    assert col.incomplete and not col.kept


def test_iterative_values_all_below_the_threshold_are_inconclusive():
    # the solver's block holds fewer values than the matrix and all sit below
    # the threshold, so more kernel candidates may lie beyond it: with no value
    # kept, the gap test alone would pass (cut <= thresh / _GAP_BAND)
    col = dlb._Collector(prov=0.16)
    dlb._add_iterative([(col, 1, False)], np.array([1e-5, 2e-5]), vmax=1.0, complete=True, dim=10)
    kernel, cut, kept, conclusive = col.finalize(0.01)
    assert (kernel, cut, kept) == (2, 2e-5, math.inf)
    assert cut <= 0.01 / dlb._GAP_BAND
    assert not conclusive


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_make_the_collector_incomplete(bad):
    # a NaN or inf batch maximum would otherwise be dropped by Python's max,
    # and every comparison with a NaN is False
    col = dlb._Collector(prov=1.0)
    feed(col, np.array([bad, 5.0, 0.5]))
    feed(col, np.array([2.0]))
    assert col.incomplete and not col.finalize(1e-8)[3]


def reference_feed(col, values, mult, modes_at):
    """One collector fed on its own: its own max, compare and masked minimum."""
    v = values.reshape(-1)
    top = float(v.max())
    if not math.isfinite(top):
        col.incomplete = True
        return
    col.vmax = max(col.vmax, top)
    at = np.flatnonzero(v <= col.prov)
    if at.size:
        col.kept.append((v[at], mult, None if modes_at is None else modes_at(at)))
    if at.size < v.size:
        col.above = min(col.above, float(np.min(v[v > col.prov])))


def exact_state(col):
    """vmax, above, incomplete and every kept (values, mult, modes), in feed order."""
    return col.vmax, col.above, col.incomplete, [
        (vals.tolist(), mult, None if at is None else at.tolist()) for vals, mult, at in col.kept]


def test_one_partition_feeds_every_collector_as_its_own_feed_would():
    provs, mults, keeps = (0.25, 1.0, 4.0, 1.0), (1, 3, 3, 4), (True, False, False, False)
    clipped = np.maximum(np.array([-1e-17, 0.5, -3e-18, 6.0]), 0.0)
    batches = [
        np.array([[0.25, 1.0, 4.0], [0.5, 3.0, 7.0], [0.0, 0.2, 9.0]]),  # values at each prov
        clipped,
        np.array([0.1, 2.0, 8.0]),
        np.array([0.0, 0.1, 0.2]),  # all below every prov
        np.array([5.0, 6.0, 9.0]),  # all above every prov
        np.array([0.1, math.nan, 5.0]),
        np.array([0.3, 4.5]),
    ]
    together = [dlb._Collector(p) for p in provs]
    alone = [dlb._Collector(p) for p in provs]
    for k, values in enumerate(batches):
        modes_at = (lambda at, k=k: 100 * k + at) if k % 2 == 0 else None
        dlb._feed(list(zip(together, mults, keeps)), values, modes_at)
        for col, mult, keep in zip(alone, mults, keeps):
            reference_feed(col, values, mult, modes_at if keep else None)
        assert [exact_state(c) for c in together] == [exact_state(c) for c in alone], k
    assert all(c.incomplete for c in together)
    assert together[0].kept[0][2] is not None and together[1].kept[0][2] is None


def test_sparse_engine_matches_dense(setup2, monkeypatch):
    theta, cs, frame = setup2
    conn = four_direction_connection(theta)
    ref = dlb._Engine(cs, frame, conn, 1e-8).run(1, True, True)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    calls = count_lobpcg(monkeypatch)
    sparse = dlb._Engine(cs, frame, conn, 1e-8).run(1, True, True)
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
    run = dlb._Engine(cs, frame, conn, 1e-8).run(1, True, False)
    assert calls
    assert not run.conclusive


# -- the index spectrum: DD^* on the odd forms ------------------------------


def product_structure():
    """J of a product of two elliptic curves, with its frame, as index-grid draws it."""
    J = np.zeros((4, 4))
    J[:2, :2] = j_from_tau(0.2 + 1.1j).J
    J[2:, 2:] = j_from_tau(-0.4 + 0.8j).J
    cs = ComplexStructure(2, J)
    return cs, antihol_frame(cs)


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
    """A box run with the index wanted, and every value its collector is fed, sorted.

    Every dense block is eigensolved, so the values are whole spectra.
    """
    added = record_collector_values(monkeypatch)
    solve_every_block(monkeypatch)
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    run = engine.run(N, want_dims, True)
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
    run, got = index_values(monkeypatch, cs, frame, conn, 2, want_dims)
    assert_matches_oracle(run, got, np.sort(np.concatenate(dense_index_spectra(cs, frame, conn, 2))))


@pytest.mark.parametrize("want_dims", [True, False])
def test_index_spectrum_with_defect_blocks_matches_dense_oracle_n3(setup3, monkeypatch,
                                                                   want_dims):
    cs, frame, conn = setup3
    assert not dlb.flatness_curvature(conn, frame).is_flat
    run, got = index_values(monkeypatch, cs, frame, conn, 1, want_dims)
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


def record_results(monkeypatch, owner, name):
    """Wrap owner.name, keeping what each call returns."""
    orig = getattr(owner, name)
    results = []

    def wrapped(*args, **kwargs):
        results.append(orig(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, wrapped)
    return results


def assert_solves_follow_picks(picks, solves, eigs):
    """Each disc pick is followed by one solve of what it picked, or, on a
    wide matrix whose pick keeps more than two blocks, by a solve of its
    witnesses, the picked blocks tied at the smallest least_b or the largest
    most_b, and one of what the certificate pick on the rest keeps; each
    solve with blocks is one batched eigvalsh."""
    solved = iter(solves)
    for k, (source, idx, _, _) in enumerate(picks):
        if source != "discs":
            continue
        M, first, _, _ = next(solved)
        if k + 1 < len(picks) and picks[k + 1][0] == "certificate":
            _, kept, rest, _ = picks[k + 1]
            M2, then, _, _ = next(solved)
            assert M2 is M and M.shape[0] >= dlb._CERTIFY_ROWS
            _, _, least, most = dlb._spectral_bounds(*dlb._disc_bounds(M))
            least, most = least[idx], most[idx]
            tied = idx[(least == least.min()) | (most == most.max())]
            assert np.array_equal(first, tied)
            assert first.size == idx.size - rest and then.size == kept.size
            assert np.isin(then, idx).all()
            assert not np.isin(then, first).any()
        else:
            assert np.array_equal(first, idx)
    assert next(solved, None) is None
    assert [M.shape for (M,) in eigs] == [(idx.size, M.shape[0], M.shape[1])
                                          for M, idx, _, _ in solves if idx.size]


def test_laplacian_batches_solve_each_degree_once(setup2, monkeypatch):
    # both halves wanted at n = 2: the index reads the Delta_1 eigenvalues
    theta, cs, frame = setup2
    engine = dlb._Engine(cs, frame, two_direction_connection(theta), 1e-8)
    batches = count_calls(monkeypatch, dlb._Engine, "_spectra")
    picks = record_picks(monkeypatch)
    solves = count_calls(monkeypatch, dlb, "_solve")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    engine.run(2, True, True)
    # one disc pick per degree and assembled batch; Delta_1 of the 5 x 5
    # grids has 50 rows and is staged
    discs = [idx for source, idx, *_ in picks if source == "discs"]
    assert batches and len(discs) == (engine.n + 1) * len(batches)
    assert any(source == "certificate" for source, *_ in picks)
    assert_solves_follow_picks(picks, solves, eigs)


def test_narrow_batches_make_one_eigvalsh_call_per_matrix(setup2, monkeypatch):
    # the e1 chain at N = 4: matrices of 9 to 18 rows, under _CERTIFY_ROWS, so
    # nothing is staged or tested and each picked matrix is one eigvalsh
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    picks = record_picks(monkeypatch)
    solves = count_calls(monkeypatch, dlb, "_solve")
    tests = count_calls(monkeypatch, dlb, "_cholesky_clears")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert dlb._Engine(cs, frame, conn, 1e-8).run(4, True, True).conclusive
    assert all(source != "certificate" for source, *_ in picks) and not tests
    discs = [idx for source, idx, *_ in picks if source == "discs"]
    assert len(solves) == len(discs) and len(eigs) == sum(idx.size > 0 for idx in discs)
    assert_solves_follow_picks(picks, solves, eigs)


def test_sparse_component_solves_each_degree_once(setup2, monkeypatch):
    theta, cs, frame = setup2
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    components = count_calls(monkeypatch, dlb._Engine, "_sparse_component")
    solves = count_calls(monkeypatch, dlb, "_iterative_small_eigs")
    run = dlb._Engine(cs, frame, four_direction_connection(theta), 1e-8).run(1, True, True)
    assert len(components) == 1 and len(solves) == 3
    assert run.conclusive


def test_index_only_run_solves_only_delta1(setup2, monkeypatch):
    theta, cs, frame = setup2
    engine = dlb._Engine(cs, frame, two_direction_connection(theta), 1e-8)
    batches = count_calls(monkeypatch, dlb._Engine, "_spectra")
    picks = record_picks(monkeypatch)
    solves = count_calls(monkeypatch, dlb, "_solve")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    engine.run(2, False, True)
    # one disc pick per assembled batch, and each eigensolve takes rows of
    # Delta_1 that it picked, each row once, a wide Delta_1 in two stages
    discs = [idx for source, idx, *_ in picks if source == "discs"]
    assert batches and len(discs) == len(batches)
    by_matrix = {}
    for M, idx, _, _ in solves:
        by_matrix.setdefault(id(M), []).append(idx)
    assert len(by_matrix) == len(batches)
    assert len(eigs) == sum(idx.size > 0 for _, idx, _, _ in solves)
    eigensolved = iter(eigs)
    for (_, ops), picked, parts in zip(batches, discs, by_matrix.values()):
        at = np.concatenate(parts)
        assert np.unique(at).size == at.size and np.isin(at, picked).all()
        A0, A1 = (A.dense() for A in ops)
        delta1 = A0 @ A0.conj().swapaxes(-1, -2) + A1.conj().swapaxes(-1, -2) @ A1
        for idx in parts:
            if idx.size:
                (M,) = next(eigensolved)
                assert np.allclose(M, delta1[idx], rtol=0.0, atol=1e-12 * np.abs(delta1).max())
    # one component spanning the box, in the oracle's basis order
    conn = four_direction_connection(theta)
    monkeypatch.setattr(dlb, "DENSE_BLOCK_LIMIT", 10)
    solves = count_calls(monkeypatch, dlb, "_iterative_small_eigs")
    assert dlb._Engine(cs, frame, conn, 1e-8).run(1, False, True).conclusive
    A0, A1 = normalized_operators(cs, frame, conn, 1)
    delta1 = (A0 @ A0.conj().T + A1.conj().T @ A1).toarray()
    assert len(solves) == 1
    assert np.allclose(solves[0][0].toarray(), delta1, rtol=0.0, atol=1e-12 * np.abs(delta1).max())


# -- which dense blocks are eigensolved -------------------------------------


def collector_state(col):
    """vmax, above, incomplete and every kept (value, mult, flat mode or None), sorted."""
    kept = sorted((float(v), mult, None if at is None else int(at[i]))
                  for vals, mult, at in col.kept for i, v in enumerate(vals))
    return col.vmax, col.above, col.incomplete, kept


def lattice_fiber_connection(theta, frame, m0):
    """r = 2, constant fibers diag(c_j, d_j): c puts one kernel vector at mode m0, d none."""
    c = lattice_shift(frame, m0)
    return dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, np.diag([c[j], d]))
                                  for j, d in enumerate((0.3 + 0.1j, 0.25))])


@pytest.mark.parametrize("case, N, want_dims", [
    ("e1 chain", 4, True),        # a flat chain at n = 2
    ("diagonal chain", 4, True),  # chains of 1 to 9 modes: the pick spans size classes
    ("two directions", 2, True),  # non-flat, both halves
    ("two directions", 2, False),  # non-flat, index only
    ("setup3", 1, True),          # n = 3: every Delta_q and the odd block matrix
    ("rank-2 fiber", 1, True),    # single-mode blocks, kernel_modes_q0
    ("index grid", 2, False),     # index-grid's boxes: 50 and 162 rows, which
    ("index grid", 4, False),     # the Cholesky certificate prunes
])
def test_picked_blocks_leave_the_collectors_as_solving_every_block(setup2, setup3, monkeypatch,
                                                                   case, N, want_dims):
    theta, cs, frame = setup2
    m0 = (1, 0, -1, 1)
    cs, frame, conn = {
        "e1 chain": (cs, frame, gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)),
        "diagonal chain": (cs, frame, gradient_connection(theta, frame, (1, 1, 0, 0),
                                                          0.8 - 0.3j)),
        "two directions": (cs, frame, two_direction_connection(theta)),
        "setup3": setup3,
        "rank-2 fiber": (cs, frame, lattice_fiber_connection(theta, frame, m0)),
        "index grid": (*product_structure(), two_direction_connection(theta)),
    }[case]

    def run():
        engine = dlb._Engine(cs, frame, conn, 1e-8)
        engine.run(N, want_dims, True)
        cols = (engine.lap or []) + [engine.dsv]
        return [collector_state(col) for col in cols], engine._finalize()

    with monkeypatch.context() as spies:
        picks = record_picks(spies)
        eigs = count_calls(spies, np.linalg, "eigvalsh")
        tests = count_calls(spies, dlb, "_cholesky_clears")
        cleared = record_results(spies, dlb, "_cholesky_clears")
        picked = run()
    solved = sum(len(M) for (M,) in eigs)
    discs = sum(idx.size for source, idx, *_ in picks if source == "discs")
    # the certificate only takes blocks away from the disc picks
    assert solved <= discs
    if case == "index grid":
        assert solved < discs
        # a twin of the block that set vmax is a witness, never a high-side
        # test that fails at tau_hi, its own largest value
        assert tests and not [tau for (A, tau, sign, _), ok in zip(tests, cleared)
                              if not ok and sign < 0 and np.linalg.eigvalsh(A)[-1] == tau]
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    solve_every_block(monkeypatch)
    full = run()
    assert picked == full
    assert solved < sum(len(M) for (M,) in eigs)
    if case == "rank-2 fiber":
        # lap[0] kept values with their modes, the kernel's among them
        assert any(mode is not None for _, _, mode in full[0][0][3])
        assert full[1].kernel_modes_q0 == ((m0, 1),)


def pick(cols, blocks):
    """_pick on dense blocks whose values would go to the collectors cols."""
    M = np.array(blocks, dtype=complex)
    return M, dlb._Engine._pick(None, *dlb._spectral_bounds(*dlb._disc_bounds(sparse_batch(M))),
                                [(col, 1, False) for col in cols])


def test_first_batch_solves_the_kernel_block_and_two_witnesses():
    col = dlb._Collector(1e-3)
    kernel = [[1.0, 1.0], [1.0, 1.0]]  # eigenvalues 0 and 2
    _, idx = pick([col], [kernel])
    assert list(idx) == [0]
    # with above = inf and vmax = 0 the batch is solved only where it can set
    # them: the kernel block, the block with the smallest diagonal entry among
    # those clear of prov (it sets above) and the block with the largest
    # diagonal entry (it sets vmax)
    blocks = [np.diag([5.0, 6.0]), kernel, np.diag([3.0, 4.0]), np.diag([4.5, 9.0]),
              [[7.0, 0.5], [0.5, 7.0]]]
    M, idx = pick([col], blocks)
    assert list(idx) == [1, 2, 3]
    full, picked = dlb._Collector(1e-3), dlb._Collector(1e-3)
    feed(full, np.linalg.eigvalsh(M))
    feed(picked, np.linalg.eigvalsh(M[idx]))
    assert collector_state(picked) == collector_state(full)


def test_blocks_with_non_finite_entries_are_solved():
    # every comparison with a NaN disc is False, so the bounds alone would skip it
    col = dlb._Collector(1e-3)
    feed(col, np.array([1e-4, 1.0, 50.0]))
    blocks = [np.diag([5.0, 6.0]), np.diag([math.nan, 6.0]), [[5.0, math.inf], [math.inf, 6.0]],
              np.diag([5.5, 6.5])]
    _, idx = pick([col], blocks)
    assert list(idx) == [1, 2]


def test_blocks_one_ulp_from_prov_are_solved():
    prov = 0.25
    up = np.nextafter(prov, 1.0)
    # values at prov, one and two ulps over it, and one far over it: the discs of
    # the middle two clear prov (and the second clears above) by less than the
    # slack that covers eigvalsh's rounding, so they are solved
    blocks = [np.diag([prov, 1.0]), np.diag([up, 1.0]), np.diag([np.nextafter(up, 1.0), 1.0]),
              np.diag([0.5, 1.0])]
    # a Laplacian collector, then a singular-value one: it reads the raw
    # eigenvalues too, so its prov sits one ulp below the second block's least
    # diagonal entry, inside that block's disc
    for singular in (False, True):
        full, picked = (dlb._Collector(prov, singular) for _ in range(2))
        for col in (full, picked):
            feed(col, np.array([up, 8.0]))  # above one ulp over prov, vmax 8
        M, idx = pick([picked], blocks)
        assert list(idx) == [0, 1, 2]
        feed(full, np.linalg.eigvalsh(M))
        feed(picked, np.linalg.eigvalsh(M[idx]))
        assert collector_state(picked) == collector_state(full)
        assert picked.finalize(0.1) == full.finalize(0.1)


def with_spectrum(values, seed=0):
    """A Hermitian matrix with the given eigenvalues in a random unitary basis:
    its diagonal entries lie between them, and its discs reach far beyond."""
    rng = np.random.default_rng(seed)
    m = len(values)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    M = (Q * np.asarray(values, dtype=float)) @ Q.conj().T
    return 0.5 * (M + M.conj().T)


@pytest.mark.parametrize("side", ["low", "high"])
def test_blocks_within_the_cholesky_margin_are_solved(side):
    # the collector holds above = 1 and vmax = 10, which the blocks below do
    # not move, so tau_lo = 1 and tau_hi = 10.  Each block's discs reach past
    # the threshold on its side and its diagonal does not, so its Cholesky
    # test decides: a block whose extreme eigenvalue lies delta / 2 inside the
    # threshold is solved, one 4 delta inside it is proven clear and skipped
    col = dlb._Collector(1e-3)
    feed(col, np.array([1e-4, 1.0, 10.0]))
    tau = 1.0 if side == "low" else 10.0
    inner = [3.0, 5.0, 7.0] if side == "low" else [2.0, 4.0, 6.0]
    m = len(inner) + 1

    def block(f):
        # delta of the certificate for this block, from its own disc radius
        probe = with_spectrum(inner + [tau])
        hi = dlb._spectral_bounds(*dlb._disc_bounds(sparse_batch([probe])))[1][0]
        delta = dlb._DISC_SLACK * m * (m + 1) * dlb._EPS * (hi + tau)
        return with_spectrum(inner + [tau + f * delta if side == "low" else tau - f * delta])

    M = np.array([block(0.5), block(4.0)])
    lo, hi, least, most = bounds = dlb._spectral_bounds(*dlb._disc_bounds(sparse_batch(M)))
    idx = dlb._Engine._pick(None, *bounds, [(col, 1, False)], dense=lambda at: M[at])
    assert np.all(least > 1.0) and np.all(most < 10.0)
    assert np.all(lo <= 1.0) if side == "low" else np.all(hi >= 10.0)
    assert list(idx) == [0]


def test_non_finite_blocks_reach_the_eigensolver_past_the_certificate(monkeypatch):
    # a wide batch of finite blocks with one non-finite one, which passes the
    # witnesses (least inf, most NaN or -inf: it ties at neither end) and which
    # the certificate pick keeps untested: an inf on the diagonal gives NaN
    # values that make the collector incomplete; an inf off the diagonal
    # reaches eigvalsh, which refuses it
    m = dlb._CERTIFY_ROWS
    finite = [with_spectrum(np.linspace(1.0 + b, 9.0 + 3 * b, m), seed=b) for b in range(4)]
    monkeypatch.setattr(dlb, "_product", lambda terms: terms)
    picks = record_picks(monkeypatch)
    tests = count_calls(monkeypatch, dlb, "_cholesky_clears")
    for spot in [(0, 0), (0, 1)]:
        bad = with_spectrum(np.linspace(2.0, 8.0, m), seed=9)
        bad[spot] = bad[spot[::-1]] = math.inf
        col = dlb._Collector(1e-3)
        picks.clear()
        tests.clear()
        engine = dlb._Engine.__new__(dlb._Engine)
        if spot == (0, 0):
            with np.errstate(invalid="ignore"):  # inf - inf in its discs
                engine._eigensolve(sparse_batch(finite + [bad]), [(col, 1, False)], None)
            assert col.incomplete
        else:
            with pytest.raises(np.linalg.LinAlgError):
                engine._eigensolve(sparse_batch(finite + [bad]), [(col, 1, False)], None)
            (_, kept, rest, made), = [p for p in picks if p[0] == "certificate"]
            assert kept[-1] == rest - 1
            # the finite blocks left were tested, one at a time, the non-finite one not
            assert 0 < made == len({id(A) for A, *_ in tests}) < rest


def test_finalize_reads_raw_eigenvalues_in_either_unit():
    # a PSD spectrum as eigvalsh returns it, fed raw in two parts of multiplicity
    # 3: the kernel is rounding noise, its largest magnitude a negative value,
    # and some values clear of the kernel sit at or below prov, some above it
    rng = np.random.default_rng(5)
    lam = np.concatenate([rng.uniform(-1e-14, 1e-14, 7), [-2e-14, 0.0, 2e-3, 5e-3],
                          rng.uniform(1e-3, 40.0, 30), [40.0]])
    rng.shuffle(lam)
    for singular, values, tol_rel in ((False, np.abs(lam), 1e-8),
                                      (True, np.sqrt(np.maximum(lam, 0.0)), 1e-4)):
        col = dlb._Collector(1e-2, singular)
        for part in np.split(lam, [20]):
            dlb._feed([(col, 3, False)], part)
        assert col.kept and math.isfinite(col.above)
        thresh = tol_rel * values.max()
        ker = values < thresh
        assert np.count_nonzero(ker) == 9
        assert col.finalize(tol_rel) == (3 * 9, values[ker].max(), values[~ker].min(), True)
    # the negative value is the Laplacian kernel's largest; a singular value reads it as 0
    col = dlb._Collector(1.0)
    feed(col, np.array([-2e-14, 1e-14, 40.0]))
    assert col.finalize(1e-8)[1] == 2e-14
    col = dlb._Collector(1.0, singular=True)
    feed(col, np.array([-2e-14, 1e-14, 40.0]))
    assert col.finalize(1e-4)[1] == np.sqrt(1e-14)


def test_few_chain_blocks_reach_the_eigensolver(setup2, monkeypatch):
    # one N = 4 box run of the e1 chain of test_gradient_chain_cohomology: its
    # 729 chains of 9 modes, which the box's one mode pick sees all of; each
    # chain has Delta_0, Delta_1 and Delta_2
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    bounds = record_results(monkeypatch, dlb._Engine, "_mode_bounds")
    picks = record_picks(monkeypatch)
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    run = dlb._Engine(cs, frame, conn, 1e-8).run(4, True, True)
    assert run.dims == (1, 2, 1) and run.ker_even == 2 and run.conclusive
    assert [lo.size for lo, *_ in bounds] == [729]
    assert [source for source, *_ in picks].count("modes") == 1
    assert sum(len(M) for (M,) in eigs) < 0.05 * 3 * 729


def test_few_chain_blocks_are_assembled(setup2, monkeypatch):
    # the same run: only the chains the mode pick keeps are assembled, and
    # each Delta_q is formed on them alone
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j)
    assembled = count_calls(monkeypatch, dlb._Engine, "_degree_operators")
    products = record_results(monkeypatch, dlb, "_product")
    run = dlb._Engine(cs, frame, conn, 1e-8).run(4, True, True)
    assert run.dims == (1, 2, 1) and run.conclusive
    kept = sum(len(mvec) for (_, mvec, _) in assembled)
    assert 0 < kept < 0.05 * 729
    assert sum(len(P) for P in products) == 3 * kept


def test_diagonal_chain_assembles_few_blocks_in_one_mode_pick(setup2, monkeypatch):
    # the flat (1,1,0,0) gradient chain at N = 4: per (m_3, m_4), the 17
    # diagonals of the (m_1, m_2) plane, chains of 1 to 9 modes; one mode pick
    # bounds all 1377 across their size classes, and few are assembled
    theta, cs, frame = setup2
    conn = gradient_connection(theta, frame, (1, 1, 0, 0), 0.8 - 0.3j)
    bounds = record_results(monkeypatch, dlb._Engine, "_mode_bounds")
    picks = record_picks(monkeypatch)
    assembled = count_calls(monkeypatch, dlb._Engine, "_degree_operators")
    run = dlb._Engine(cs, frame, conn, 1e-8).run(4, True, True)
    assert run.dims == (1, 2, 1) and run.ker_even == 2 and run.conclusive
    assert [lo.size for lo, *_ in bounds] == [17 * 81]
    assert [source for source, *_ in picks].count("modes") == 1
    assert len({mvec.shape[1] for (_, mvec, _) in assembled}) > 1
    assert 0 < sum(len(mvec) for (_, mvec, _) in assembled) < 0.1 * 17 * 81


@pytest.mark.parametrize("case, N", [("e1 chain", 4), ("two directions", 2)])
def test_only_picked_blocks_are_made_dense(setup2, monkeypatch, case, N):
    # n <= 2: the Delta_q of a flat chain and of two coupled directions;
    # every dense block eigvalsh reads is a block the discs of its formed
    # matrix picked, so no batch is made dense whole
    theta, cs, frame = setup2
    conn = {"e1 chain": gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j),
            "two directions": two_direction_connection(theta)}[case]
    batches = count_calls(monkeypatch, dlb._Engine, "_spectra")
    picks = record_picks(monkeypatch)
    dense = record_results(monkeypatch, dlb._Sparse, "dense")
    eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True).conclusive
    picked = sum(idx.size for source, idx, *_ in picks if source == "discs")
    assert 0 < picked < 3 * sum(len(ops[0]) for (_, ops) in batches)
    # every eigensolve is a batched one (the identity metric is not eigensolved)
    assert all(M.ndim == 3 for (M,) in eigs)
    # each block the discs pick is eigensolved or skipped by the certificate
    # pick, and a block is made dense only to be eigensolved or tested
    solved = sum(len(M) for (M,) in eigs)
    assert picked == solved + sum(rest - idx.size for source, idx, rest, _ in picks
                                  if source == "certificate")
    assert sum(len(M) for M in dense) == solved + sum(made for *_, made in picks)


def test_coupled_connection_with_a_non_scalar_fiber(setup2, monkeypatch):
    # rank 2, constant fibers diag(c_j, d_j) plus the gradient step (1,1,0,0)
    # on both fibers: flat, coupled and not scalar, so the corner singletons
    # (m_1 = -m_2 = +-N) take _run_blocks with c = 1, where the step has no
    # source inside the block; c puts the kernel at the corner m0
    theta, cs, frame = setup2
    s, m0, N = (1, 1, 0, 0), (1, -1, 0, 1), 1
    zero, ws = FourierElement.zero(theta), frame.W @ np.array(s)
    grads = [FourierElement.monomial(theta, s, (0.6 - 0.2j) * w) for w in ws]
    conn = dlb.FreeConnection(2, [t + MatrixElement(theta, [[g, zero], [zero, g]]) for t, g
                                  in zip(lattice_fiber_connection(theta, frame, m0).terms, grads)])
    assert dlb.flatness_curvature(conn, frame).is_flat
    blocks = count_calls(monkeypatch, dlb._Engine, "_run_blocks")
    layouts = count_calls(monkeypatch, dlb._Engine, "_direction_terms")
    run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
    assert any(members.shape[1] == 1 for (_, members, _) in blocks)
    assert any(np.all(pattern[1:] < 0) for (_, _, pattern) in layouts)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, conn, N) == run.dims == (1, 2, 1)
    assert run.kernel_modes_q0 == ((m0, 1),)
    run, got = index_values(monkeypatch, cs, frame, conn, N, True)
    assert_matches_oracle(run, got, np.sort(np.concatenate(dense_index_spectra(cs, frame, conn, N))))


def test_constant_fiber_matrices_match_dense(setup2):
    # commuting constant r=2 fiber terms: flat, mode-diagonal, nontrivial fibers
    theta, cs, frame = setup2
    A1 = np.array([[0.3 + 0.1j, 0.0], [0.0, -0.2j]])
    A2 = np.array([[0.1 - 0.4j, 0.0], [0.0, 0.25]])
    conn = dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, A1),
                                  MatrixElement.from_scalars(theta, A2)])
    assert dlb.flatness_curvature(conn, frame).is_flat
    N = 1
    run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
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
    run = dlb._Engine(cs, frame, off, 1e-8).run(N, True, True)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, off, N) == run.dims == (0, 0, 0)
    m0 = (1, 0, -1, 1)
    on = scalar_fiber_connection(theta, lattice_shift(frame, m0), 2)
    run = dlb._Engine(cs, frame, on, 1e-8).run(N, True, True)
    assert run.conclusive
    assert dense_laplacian_dims(cs, frame, on, N) == run.dims == (2, 4, 2)
    assert run.kernel_modes_q0 == ((m0, 2),)


def test_chain_singletons_take_single_mode_blocks(setup2, monkeypatch):
    # a flat gradient chain along (1,1,0,0) plus a scalar shift on the lattice
    # point of a singleton mode: the singletons are components of one mode and
    # take the dense blocks with c = 1, which attribute the kernel to m0
    theta, cs, frame = setup2
    s, m0 = (1, 1, 0, 0), (1, -1, 1, 0)
    ws, c = frame.W @ np.array(s), lattice_shift(frame, m0)
    terms = [MatrixElement(theta, [[FourierElement.monomial(theta, s, (0.6 - 0.2j) * ws[j])
                                    + FourierElement.monomial(theta, (0, 0, 0, 0), c[j])]])
             for j in range(2)]
    conn = dlb.FreeConnection(1, terms)
    assert dlb.flatness_curvature(conn, frame).is_flat
    blocks = count_calls(monkeypatch, dlb._Engine, "_run_blocks")
    for N in (1, 2):
        blocks.clear()
        run = dlb._Engine(cs, frame, conn, 1e-8).run(N, True, True)
        singles = [members for (_, members, _) in blocks if members.shape[1] == 1]
        assert len(singles) == 1 and 0 < singles[0].size < dlb.mode_count(4, N)
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

    def spy(self, N):
        for start, lam in orig(self, N):
            starts.append(start)
            yield start, lam

    monkeypatch.setattr(dlb._Engine, "_box_koszul_eigenvalues", spy)
    run = dlb._Engine(cs, frame, conn, 1e-8).run(6, True, False)
    flat0 = sum((m + 6) * 13 ** k for k, m in enumerate(m0))
    assert len(starts) > 1 and flat0 >= starts[1]
    assert run.dims == (1, 3, 3, 1) and run.conclusive
    assert run.kernel_modes_q0 == ((m0, 1),)


@pytest.mark.parametrize("n, N", [(1, 12), (2, 4), (3, 2), (3, 6)])
@pytest.mark.parametrize("shift", ["trivial", "generic", "lattice"])
def test_box_koszul_values_match_direct_evaluation(n, N, shift):
    # the slab product |x + y|^2 = [2x, |x|^2, 1] . [y, 1, |y|^2] against
    # |decode(idx) @ U + v0|^2; 13^6 at n = 3 spans several slabs, checked
    # at 10^4 seeded indices each
    theta = ThetaMatrix.product([0.31, 0.47, 0.23][:n])
    cs = random_complex_structure(n, np.random.default_rng(40 + n))
    frame = antihol_frame(cs)
    m0 = (1, -1, 0, 1, -1, 1)[:2 * n]
    c = {"trivial": [0.0] * n,
         "generic": [0.37 + 0.21j, -0.13 + 0.52j, 0.2 - 0.3j][:n],
         "lattice": lattice_shift(frame, m0)}[shift]
    conn = dlb.FreeConnection.scalar_shift(theta, c)
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    d, K = 2 * n, dlb.mode_count(2 * n, N)
    slabs = list(engine._box_koszul_eigenvalues(N))
    rng = np.random.default_rng(7)
    end = 0
    for start, lam in slabs:
        assert start == end and 0 < lam.size <= 2_000_000
        end = start + lam.size
        assert lam.min() >= 0.0
    assert end == K
    vmax = max(lam.max() for _, lam in slabs)
    for start, lam in slabs:
        idx = np.arange(lam.size) if K <= 2 * 10 ** 5 else rng.integers(0, lam.size, 10 ** 4)
        vt = dlb._decode_modes(start + idx, d, N) @ engine.U + engine.v0
        direct = np.einsum("ij,ij->i", vt, vt)
        assert np.all(np.abs(lam[idx] - direct) <= 8 * (2 * n + 2) * np.finfo(float).eps * vmax)
    if shift == "trivial":
        origin = (K - 1) // 2  # every coordinate 0
        (start, lam), = [(s, lam) for s, lam in slabs if s <= origin < s + lam.size]
        assert lam[origin - start] == 0.0
    if n == 3 and N == 6:
        assert len(slabs) == 3


@pytest.mark.parametrize("seed, m0", [(3, (2, -2, 0, 2)), (4, (-2, 1, -2, 0)),
                                      (28, (-1, 2, 0, -1))])
def test_clipped_kernel_value_keeps_the_lattice_shift_kernel(seed, m0):
    # with OpenBLAS's dgemm the unclipped slab value at m0 is -2.8e-14,
    # -1.4e-14 and -1.4e-14 (against a box maximum near 10^3): without the
    # clip at 0 the index takes its square root, NaN (a warning, an error here)
    theta = ThetaMatrix.product([0.31, 0.47])
    cs = random_complex_structure(2, np.random.default_rng(seed))
    frame = antihol_frame(cs)
    conn = dlb.FreeConnection.scalar_shift(theta, lattice_shift(frame, m0))
    box = dlb.TruncationBox(2)
    rep = dlb.cohomology_dims(cs, frame, conn, box)
    assert rep.dims == (1, 2, 1)
    assert rep.kernel_modes_q0 == ((m0, 1),)
    assert rep.stable and rep.conclusive
    assert math.isfinite(rep.sigma_kept) and math.isfinite(rep.sigma_cut)
    res = dlb.index(cs, frame, conn, box)
    assert res.index == 0 and res.stable and res.conclusive
    assert math.isfinite(res.sigma_kept) and math.isfinite(res.sigma_cut)


@pytest.mark.parametrize("case", ["trivial n = 3, r = 2", "scalar shift", "e1 chain",
                                  "index-grid"])
def test_one_engine_runs_each_box_as_a_fresh_engine(setup2, case):
    # cohomology_dims and index run one engine at N, then at N + 2
    theta, cs, frame = setup2
    if case == "trivial n = 3, r = 2":
        cs = random_complex_structure(3, np.random.default_rng(33))
        frame = antihol_frame(cs)
        conn = dlb.FreeConnection.trivial(ThetaMatrix.product([0.31, 0.47, 0.23]), 3, 2)
    else:
        conn = {"scalar shift": dlb.FreeConnection.scalar_shift(theta, [0.37 + 0.21j, -0.13]),
                "e1 chain": gradient_connection(theta, frame, (1, 0, 0, 0), 0.8 - 0.3j),
                "index-grid": two_direction_connection(theta)}[case]
    wants = [(False, True)] * 2 if case == "index-grid" else [(True, True), (True, False)]
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    for N, want in zip((1, 3), wants):
        run = engine.run(N, *want)
        fresh = dlb._Engine(cs, frame, conn, 1e-8)
        assert run == fresh.run(N, *want)
        assert [exact_state(col) for col in (engine.lap or []) + [engine.dsv] if col] == \
            [exact_state(col) for col in (fresh.lap or []) + [fresh.dsv] if col]
        assert run.conclusive


def test_only_non_scalar_constant_fibers_assemble_blocks(setup2, monkeypatch):
    theta, cs, frame = setup2

    def refuse(self, *args):
        raise AssertionError("dense blocks assembled")

    monkeypatch.setattr(dlb._Engine, "_run_blocks", refuse)
    for conn in (dlb.FreeConnection.scalar_shift(theta, [0.37 + 0.21j, -0.13 + 0.52j]),
                 scalar_fiber_connection(theta, [0.2j, 0.5 - 0.1j], 2)):
        assert dlb._Engine(cs, frame, conn, 1e-8).run(2, True, True).conclusive
    diagonal = dlb.FreeConnection(2, [
        MatrixElement.from_scalars(theta, np.diag([0.3 + 0.1j, -0.2j])),
        MatrixElement.from_scalars(theta, np.diag([0.1 - 0.4j, 0.25])),
    ])
    with pytest.raises(AssertionError, match="dense blocks assembled"):
        dlb._Engine(cs, frame, diagonal, 1e-8).run(2, True, True)


def test_uncoupled_non_scalar_fiber_box_assembles_few_blocks(setup2, monkeypatch):
    # a_j = diag(0, d_j): no step, yet not scalar, so every mode is a block of
    # its own; the mode pick keeps those near the kernel at mode 0 and the
    # witnesses, out of the 21^4 of the N + 2 box
    theta, cs, frame = setup2
    conn = dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, np.diag([0.0, d]))
                                  for d in (0.37 + 0.21j, -0.13 + 0.52j)])
    assembled = {}
    orig = dlb._Engine._degree_operators

    def spy(self, mvec, pattern):
        assembled[self.N] = assembled.get(self.N, 0) + len(mvec)
        return orig(self, mvec, pattern)

    monkeypatch.setattr(dlb._Engine, "_degree_operators", spy)
    rep = dlb.cohomology_dims(cs, frame, conn, dlb.TruncationBox(8))
    assert rep.dims == (1, 2, 1) and rep.stable
    assert rep.kernel_modes_q0 == (((0, 0, 0, 0), 1),)
    assert dlb.mode_count(4, 10) == 194_481
    assert 0 < assembled[10] < 0.001 * 194_481


@pytest.mark.parametrize("case, N", [("e1 chain", 4), ("diagonal chain", 4), ("n = 3 chain", 2),
                                     ("fiber box", 4)])
def test_box_runs_decode_only_assembled_and_kernel_modes(setup2, monkeypatch, case, N):
    # _decode_modes runs on the modes of the assembled blocks and of the
    # degree-0 kernel, never on the whole box
    theta, cs, frame = setup2
    if case == "n = 3 chain":
        cs, frame, conn = n3_chain((1, 0, 0, 0, 0, 0))
    elif case == "fiber box":
        conn = dlb.FreeConnection(2, [MatrixElement.from_scalars(theta, np.diag([0.0, d]))
                                      for d in (0.37 + 0.21j, -0.13 + 0.52j)])
    else:
        step = (1, 0, 0, 0) if case == "e1 chain" else (1, 1, 0, 0)
        conn = gradient_connection(theta, frame, step, 0.8 - 0.3j)
    decoded = count_calls(monkeypatch, dlb, "_decode_modes")
    batches = count_calls(monkeypatch, dlb._Engine, "_degree_operators")
    engine = dlb._Engine(cs, frame, conn, 1e-8)
    assert engine.run(N, True, True).conclusive
    kernel = sum(at.size for at, _ in engine.lap[0].kernel_modes if at is not None)
    rows = sum(flat.size for flat, _, _ in decoded)
    assert 0 < rows <= sum(mvec.shape[0] * mvec.shape[1] for _, mvec, _ in batches) + kernel
    assert rows < dlb.mode_count(engine.d, N) / 10


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
    rows = export_operator_coo(cs, frame, conn, dlb.TruncationBox(1), 0)
    K = dlb.mode_count(4, 1)
    assert all(len(t) == 4 for t in rows)
    assert len(rows) <= 2 * K
    # diagonal structure: column index determines mode, rows live in the two targets
    assert rows == sorted(rows, key=lambda t: (t[0], t[1]))
