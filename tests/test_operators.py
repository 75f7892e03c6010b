import tracemalloc

import numpy as np
import pytest

from robustdeblur import operators as operators_module
from robustdeblur.gridfft import count_transforms, dft2, idft2
from robustdeblur.objective import Objective
from robustdeblur.operators import (
    BlurOperator,
    Workspace,
    _hessian_kernel,
    _penalty_symbol,
    as_stack,
    hessian_apply,
    laplacian_symbol,
)
from robustdeblur.precond import build_dhat, precond_build
from robustdeblur.testbed import make_instance

from oracles import dense_blur_matrix, dense_hessian, dense_laplacian

# Odd widths and a two-row grid exercise the half-spectrum layout, where the
# inverse transform must be told the output width.
ODD_AND_THIN = ((5, 7), (7, 6), (2, 9))


def random_psf(rng, shape):
    psf = rng.random(shape)
    return psf / psf.sum()


def make_operator(rng, shape=(6, 6), frames=1):
    psfs = [random_psf(rng, shape) for _ in range(frames)]
    centers = [(shape[0] // 2, shape[1] // 2)] * frames
    return BlurOperator(psfs, centers), psfs, centers


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(31)
    for shape in ((6, 6),) + ODD_AND_THIN:
        op, psfs, centers = make_operator(rng, shape)
        A = dense_blur_matrix(psfs[0], centers[0])
        x = rng.standard_normal(shape)
        expected = (A @ x.ravel()).reshape(shape)
        assert np.max(np.abs(op.apply(x)[0] - expected)) < 1e-10, shape


def test_adjoint_matches_dense_transpose():
    rng = np.random.default_rng(32)
    op, psfs, centers = make_operator(rng)
    A = dense_blur_matrix(psfs[0], centers[0])
    y = rng.standard_normal((6, 6))
    expected = (A.T @ y.ravel()).reshape(6, 6)
    assert np.max(np.abs(op.apply_adjoint(y[None]) - expected)) < 1e-10


def test_adjoint_identity():
    # <A x, y> == <x, A^T y> for every frame count.
    rng = np.random.default_rng(33)
    for shape in ((8, 8),) + ODD_AND_THIN:
        for frames in (1, 3):
            op, _, _ = make_operator(rng, shape, frames)
            x = rng.standard_normal(shape)
            y = rng.standard_normal((frames,) + shape)
            lhs = np.sum(op.apply(x) * y)
            rhs = np.sum(x * op.apply_adjoint(y))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (shape, frames)


def test_multi_frame_is_stack_of_single_frames():
    rng = np.random.default_rng(34)
    op, psfs, centers = make_operator(rng, (8, 8), 3)
    x = rng.standard_normal((8, 8))
    stacked = op.apply(x)
    for j in range(3):
        single = BlurOperator([psfs[j]], [centers[j]])
        assert np.allclose(stacked[j], single.apply(x)[0], atol=1e-12)


def test_unit_sum_psf_preserves_mass():
    rng = np.random.default_rng(35)
    op, _, _ = make_operator(rng, (8, 8))
    x = rng.random((8, 8))
    assert op.apply(x)[0].sum() == pytest.approx(x.sum())


def test_squared_kernel_spectra_square_entrywise():
    # The operator built from psf**2 is the entry-wise square of A for
    # circulant matrices; the constructor stores its conjugate spectra and
    # diag(A^T A) for the preconditioner.
    rng = np.random.default_rng(36)
    op, psfs, centers = make_operator(rng)
    sq_op = BlurOperator([psfs[0] ** 2], centers)
    assert np.array_equal(op._sq_otf_half_adj, np.conj(sq_op._otf_half))
    A = dense_blur_matrix(psfs[0], centers[0])
    x = rng.standard_normal((6, 6))
    via_sq = sq_op.apply(x)[0]
    assert np.max(np.abs(via_sq - ((A * A) @ x.ravel()).reshape(6, 6))) < 1e-10
    assert op._gram_diag == pytest.approx(np.sum(A * A, axis=0)[0], rel=1e-12)


def test_operator_holds_half_spectra_only():
    # Three complex half-spectrum stacks (A, its adjoint, the squared
    # kernels) and one real half-spectrum symbol (A^T A); nothing full-grid.
    # Building them costs one fft2 per frame for each kernel stack.
    rng = np.random.default_rng(47)
    k, h, w = 3, 64, 64
    with count_transforms() as c:
        op, _, _ = make_operator(rng, (h, w), k)
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (2 * k, 0, 0, 0)
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= (
        3 * k * h * (w // 2 + 1) * 16 + h * (w // 2 + 1) * 8
    )


def test_operator_validation():
    rng = np.random.default_rng(37)
    op, _, _ = make_operator(rng)
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros((2, 6, 6)))
    psf = np.ones((4, 4)) / 16
    with pytest.raises(ValueError, match="one center per psf"):
        BlurOperator([psf], [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="at least one psf"):
        BlurOperator([], [])
    for center in ((0,), (0, 1, 2), 3):
        with pytest.raises(ValueError, match="not a \\(row, column\\) pair"):
            BlurOperator([psf], [center])
    with pytest.raises(ValueError, match="outside grid"):
        BlurOperator([psf], [(1, 4)])
    with pytest.raises(ValueError, match="share the grid shape"):
        BlurOperator([psf, np.ones((4, 5)) / 20], [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        as_stack(np.zeros((1, 4, 5)), (4, 4))
    # a single 2-D frame is promoted to a one-frame stack
    assert as_stack(np.ones((4, 4)), (4, 4)).shape == (1, 4, 4)


def test_grid_below_2x2_is_rejected_where_the_operator_is_built():
    # The Laplacian needs two rows and two columns; the error comes from
    # the operator's construction, not from the first objective built on it,
    # and make_instance rejects such a shape at entry, naming it.
    for shape in ((1, 7), (7, 1)):
        with pytest.raises(ValueError, match="grid must be at least 2x2"):
            BlurOperator([np.ones(shape) / 7], [(0, 0)])
    with pytest.raises(ValueError, match=r"^shape must be two integers, each "
                                         r"at least 2, got \(1, 7\)$"):
        make_instance("ash", (1, 7))


# -- Laplacian ----------------------------------------------------------


def test_laplacian_symbol_values():
    sq = laplacian_symbol((4, 4))
    assert sq[0, 0] == 0.0
    assert np.all(sq >= 0)
    # Nyquist-Nyquist mode on a 4x4 grid: eigenvalue 8, squared 64.
    assert sq[2, 2] == pytest.approx(64.0)


def test_laplacian_symbol_matches_stencil_matrix():
    shape = (6, 5)
    sq = laplacian_symbol(shape)
    L = dense_laplacian(shape)
    rng = np.random.default_rng(38)
    x = rng.standard_normal(shape)
    expected = (L.T @ L @ x.ravel()).reshape(shape)
    assert np.max(np.abs(idft2(sq * dft2(x)) - expected)) < 1e-10


def test_laplacian_annihilates_constants():
    sq = laplacian_symbol((8, 8))
    const = np.full((8, 8), 2.5)
    assert np.max(np.abs(idft2(sq * dft2(const)))) < 1e-12


# -- Hessian product ----------------------------------------------------


def test_hessian_apply_matches_dense_assembly():
    rng = np.random.default_rng(39)
    for shape in ((6, 6),) + ODD_AND_THIN:
        op, psfs, centers = make_operator(rng, shape, 2)
        weights = rng.random((2,) + shape)
        lam = 0.37
        H = dense_hessian(psfs, centers, weights, lam, shape)
        for _ in range(3):
            s = rng.standard_normal(shape)
            got = hessian_apply(op, weights, lam, s)
            expected = (H @ s.ravel()).reshape(shape)
            assert np.max(np.abs(got - expected)) < 1e-9, shape


def test_hessian_apply_symmetric_and_psd():
    rng = np.random.default_rng(40)
    shape = (8, 8)
    op, _, _ = make_operator(rng, shape, 2)
    weights = rng.random((2,) + shape)
    for _ in range(5):
        s = rng.standard_normal(shape)
        t = rng.standard_normal(shape)
        hs = hessian_apply(op, weights, 0.2, s)
        ht = hessian_apply(op, weights, 0.2, t)
        assert np.sum(hs * t) == pytest.approx(np.sum(s * ht), rel=1e-10)
        assert np.sum(s * hs) >= -1e-12


def test_hessian_apply_zero_lambda_is_weighted_normal_matrix():
    rng = np.random.default_rng(41)
    shape = (6, 6)
    op, psfs, centers = make_operator(rng, shape)
    weights = rng.random((1,) + shape)
    A = dense_blur_matrix(psfs[0], centers[0])
    H = A.T @ np.diag(weights.ravel()) @ A
    s = rng.standard_normal(shape)
    got = hessian_apply(op, weights, 0.0, s)
    assert np.max(np.abs(got - (H @ s.ravel()).reshape(shape))) < 1e-10


def test_hessian_apply_transform_budget_single_frame():
    rng = np.random.default_rng(42)
    op, _, _ = make_operator(rng, (16, 16))
    weights = rng.random((1, 16, 16))
    s = rng.standard_normal((16, 16))
    with count_transforms() as c:
        hessian_apply(op, weights, 0.1, s)
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (2, 2, 4, 1)


def test_hessian_apply_transform_budget_three_frames():
    rng = np.random.default_rng(43)
    op, _, _ = make_operator(rng, (16, 16), 3)
    weights = rng.random((3, 16, 16))
    s = rng.standard_normal((16, 16))
    with count_transforms() as c:
        hessian_apply(op, weights, 0.1, s)
    # k frames cost k+1 transforms each way, 3k+1 multiplies, k additions.
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (4, 4, 10, 3)


def test_hessian_apply_rejects_bad_weights():
    rng = np.random.default_rng(44)
    op, _, _ = make_operator(rng)
    s = np.zeros((6, 6))
    with pytest.raises(ValueError):
        hessian_apply(op, -np.ones((1, 6, 6)), 0.1, s)
    with pytest.raises(ValueError):
        hessian_apply(op, np.ones((2, 6, 6)), 0.1, s)
    with pytest.raises(ValueError):
        hessian_apply(op, np.ones((1, 6, 6)), -0.1, s)


def test_hessian_apply_rejects_non_finite_inputs():
    rng = np.random.default_rng(45)
    op, _, _ = make_operator(rng)
    s = np.zeros((6, 6))
    with pytest.raises(ValueError, match="Hessian weights must be nonnegative"):
        hessian_apply(op, -np.ones((1, 6, 6)), 0.1, s)
    for bad in (np.nan, np.inf):
        weights = np.ones((1, 6, 6))
        weights[0, 2, 3] = bad
        with pytest.raises(ValueError, match="weights contains non-finite"):
            hessian_apply(op, weights, 0.1, s)
        s_bad = s.copy()
        s_bad[1, 1] = bad
        with pytest.raises(ValueError, match="s contains non-finite"):
            hessian_apply(op, np.ones((1, 6, 6)), 0.1, s_bad)


def test_workspace_kernels_allocate_no_grid_arrays():
    # PCG applies the Hessian and the preconditioner in a per-solve
    # workspace; one 64x64 image is 32 KiB, so a peak of 16 KiB rules out
    # any grid-sized temporary.
    rng = np.random.default_rng(46)
    shape, lam = (64, 64), 0.1
    op, _, _ = make_operator(rng, shape, 3)
    weights = rng.random((3,) + shape)
    s = rng.standard_normal(shape)
    pre = precond_build(op, weights, lam)
    ws = Workspace(shape, 3)
    penalty = _penalty_symbol(shape, lam)
    kernels = {
        "hessian": (
            lambda: _hessian_kernel(op, penalty, weights, ws, s),
            hessian_apply(op, weights, lam, s),
        ),
        "preconditioner": (lambda: pre.solve(s, ws=ws), pre.solve(s)),
    }
    for name, (kernel, fresh) in kernels.items():
        kernel()  # warm-up: numpy caches FFT plans on first use
        tracemalloc.start()
        try:
            out = kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is ws.image, name
        assert peak <= 16 * 1024, (name, peak)
        # the public entry points run the same kernel on a throwaway workspace
        assert np.array_equal(out, fresh), name


def frame_budget(shape, frames):
    """A ``_BATCH_BYTES`` that holds ``frames`` half-spectrum frames of ``shape``."""
    return frames * shape[0] * (shape[1] // 2 + 1) * 16


@pytest.mark.parametrize("shape", [(128, 128), (9, 9), (7, 12)])
def test_batch_layout_never_moves_a_kernel_result(monkeypatch, shape):
    # The k-frame kernels run one frame batch at a time: one frame per batch,
    # batches of two and one, and all three frames in one batch must give
    # the same bytes from every kernel.
    def results(frames_per_batch):
        monkeypatch.setattr(operators_module, "_BATCH_BYTES",
                            frame_budget(shape, frames_per_batch))
        assert len(Workspace(shape, 3).stack) == frames_per_batch
        rng = np.random.default_rng(48)
        op, _, _ = make_operator(rng, shape, 3)
        x = rng.random(shape) + 0.5
        data = op.apply(x) + rng.standard_normal((3,) + shape)
        data[:, 0, :2] += 50.0  # outliers, so the mask has both values
        weights = rng.random((3,) + shape)
        s = rng.standard_normal(shape)
        obj = Objective(op, data, 0.7, lam=0.1)
        ev = obj.evaluate(x)
        assert ev.inlier_mask.any() and not ev.inlier_mask.all()
        arrays = (op.apply(x), op.apply_adjoint(data), hessian_apply(op, weights, 0.1, s),
                  np.float64(ev.value), ev.ax, ev.z, ev.d, ev.inlier_mask,
                  obj.gradient_at(ev), build_dhat(op, weights))
        return [a.tobytes() for a in arrays]

    whole = results(3)
    assert results(1) == whole
    assert results(2) == whole


def test_workspace_batches_frames_by_half_spectrum_bytes():
    # Frames share a batch up to _BATCH_BYTES of half spectrum; past one
    # batch the frame spectra gain a slot for the adjoint sum; without
    # frames there is no frame buffer at all.
    for shape, frames, batch, spectra in (((64, 64), 3, 3, 3), ((64, 64), 9, 7, 8),
                                          ((128, 128), 3, 1, 2), ((128, 128), 1, 1, 1),
                                          ((256, 256), 3, 1, 2), ((64, 64), 0, 0, 0)):
        ws = Workspace(shape, frames)
        assert ws.stack.shape == (batch,) + shape
        assert ws.stack_spectrum.shape == (spectra, shape[0], shape[1] // 2 + 1)
        # the working-set tests sum the workspace's buffers
        assert all(isinstance(v, np.ndarray) for v in vars(ws).values())


def test_an_image_only_entry_point_allocates_no_frame_buffer():
    # Preconditioner.solve(r) runs in a throwaway frame-free workspace: its
    # traced peak is that workspace's image and half spectrum.
    rng = np.random.default_rng(49)
    shape = (128, 128)
    op, _, _ = make_operator(rng, shape, 3)
    pre = precond_build(op, rng.random((3,) + shape), 0.1)
    r = rng.standard_normal(shape)
    pre.solve(r)  # warm-up: numpy caches FFT plans on first use
    tracemalloc.start()
    try:
        pre.solve(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * r.nbytes, peak / r.nbytes
