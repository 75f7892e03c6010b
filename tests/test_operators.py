import tracemalloc

import numpy as np
import pytest

from robustdeblur.gridfft import (
    InverseTransformError,
    count_transforms,
    dft2,
    idft2,
    psf_to_otf,
)
from robustdeblur.operators import (
    BlurOperator,
    Workspace,
    _hessian_kernel,
    _penalty_symbol,
    as_stack,
    hessian_apply,
    laplacian_symbol,
)
from robustdeblur.precond import precond_build

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
    return BlurOperator.from_psfs(psfs, centers), psfs, centers


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(31)
    op, psfs, centers = make_operator(rng)
    A = dense_blur_matrix(psfs[0], centers[0])
    x = rng.standard_normal((6, 6))
    assert np.max(np.abs(op.apply(x)[0] - (A @ x.ravel()).reshape(6, 6))) < 1e-10


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
        single = BlurOperator.from_psfs([psfs[j]], [centers[j]])
        assert np.allclose(stacked[j], single.apply(x)[0], atol=1e-12)


def test_unit_sum_psf_preserves_mass():
    rng = np.random.default_rng(35)
    op, _, _ = make_operator(rng, (8, 8))
    x = rng.random((8, 8))
    assert op.apply(x)[0].sum() == pytest.approx(x.sum())


def test_from_psfs_squares_entrywise():
    # The operator built from psf**2 is the entry-wise square of A for
    # circulant matrices; from_psfs stores its OTFs for the preconditioner.
    rng = np.random.default_rng(36)
    op, psfs, centers = make_operator(rng)
    assert np.allclose(
        op.sq_otfs[0], psf_to_otf(psfs[0] ** 2, centers[0]), atol=1e-12
    )
    A = dense_blur_matrix(psfs[0], centers[0])
    x = rng.standard_normal((6, 6))
    via_sq = idft2(op.sq_otfs[0] * dft2(x))
    assert np.max(np.abs(via_sq - ((A * A) @ x.ravel()).reshape(6, 6))) < 1e-10


def test_construction_requires_hermitian_spectra():
    # The half-spectrum inverse trusts the OTFs to be spectra of real
    # kernels, so the operator checks that once, when it is built.
    rng = np.random.default_rng(45)
    op, _, _ = make_operator(rng, (6, 7), 2)
    BlurOperator(op.otfs, op.sq_otfs)  # rounding-level asymmetry passes
    bad = np.array(op.otfs)
    bad[1, 1, 2] += 0.1j
    with pytest.raises(InverseTransformError, match="otfs frame 1"):
        BlurOperator(bad, op.sq_otfs)
    bad_sq = np.array(op.sq_otfs)
    bad_sq[0, 2, 3] += 0.5
    with pytest.raises(InverseTransformError, match="sq_otfs frame 0"):
        BlurOperator(op.otfs, bad_sq)


def test_operator_validation():
    rng = np.random.default_rng(37)
    op, _, _ = make_operator(rng)
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros((2, 6, 6)))
    with pytest.raises(ValueError):
        BlurOperator.from_psfs([np.ones((4, 4)) / 16], [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        as_stack(np.zeros((1, 4, 5)), (4, 4))


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
        lap_sq = laplacian_symbol(shape)
        for _ in range(3):
            s = rng.standard_normal(shape)
            got = hessian_apply(op, lap_sq, weights, lam, s)
            expected = (H @ s.ravel()).reshape(shape)
            assert np.max(np.abs(got - expected)) < 1e-9, shape


def test_hessian_apply_symmetric_and_psd():
    rng = np.random.default_rng(40)
    shape = (8, 8)
    op, _, _ = make_operator(rng, shape, 2)
    weights = rng.random((2,) + shape)
    lap_sq = laplacian_symbol(shape)
    for _ in range(5):
        s = rng.standard_normal(shape)
        t = rng.standard_normal(shape)
        hs = hessian_apply(op, lap_sq, weights, 0.2, s)
        ht = hessian_apply(op, lap_sq, weights, 0.2, t)
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
    got = hessian_apply(op, laplacian_symbol(shape), weights, 0.0, s)
    assert np.max(np.abs(got - (H @ s.ravel()).reshape(shape))) < 1e-10


def test_hessian_apply_transform_budget_single_frame():
    rng = np.random.default_rng(42)
    op, _, _ = make_operator(rng, (16, 16))
    weights = rng.random((1, 16, 16))
    lap_sq = laplacian_symbol((16, 16))
    s = rng.standard_normal((16, 16))
    with count_transforms() as c:
        hessian_apply(op, lap_sq, weights, 0.1, s)
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (2, 2, 4, 1)


def test_hessian_apply_transform_budget_three_frames():
    rng = np.random.default_rng(43)
    op, _, _ = make_operator(rng, (16, 16), 3)
    weights = rng.random((3, 16, 16))
    lap_sq = laplacian_symbol((16, 16))
    s = rng.standard_normal((16, 16))
    with count_transforms() as c:
        hessian_apply(op, lap_sq, weights, 0.1, s)
    # k frames cost k+1 transforms each way, 3k+1 multiplies, k additions.
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (4, 4, 10, 3)


def test_hessian_apply_rejects_bad_weights():
    rng = np.random.default_rng(44)
    op, _, _ = make_operator(rng)
    lap_sq = laplacian_symbol((6, 6))
    s = np.zeros((6, 6))
    with pytest.raises(ValueError):
        hessian_apply(op, lap_sq, -np.ones((1, 6, 6)), 0.1, s)
    with pytest.raises(ValueError):
        hessian_apply(op, lap_sq, np.ones((2, 6, 6)), 0.1, s)
    with pytest.raises(ValueError):
        hessian_apply(op, lap_sq, np.ones((1, 6, 6)), -0.1, s)


def test_hessian_apply_rejects_non_finite_inputs():
    rng = np.random.default_rng(45)
    op, _, _ = make_operator(rng)
    lap_sq = laplacian_symbol((6, 6))
    s = np.zeros((6, 6))
    with pytest.raises(ValueError, match="Hessian weights must be nonnegative"):
        hessian_apply(op, lap_sq, -np.ones((1, 6, 6)), 0.1, s)
    for bad in (np.nan, np.inf):
        weights = np.ones((1, 6, 6))
        weights[0, 2, 3] = bad
        with pytest.raises(ValueError, match="weights contains non-finite"):
            hessian_apply(op, lap_sq, weights, 0.1, s)
        s_bad = s.copy()
        s_bad[1, 1] = bad
        with pytest.raises(ValueError, match="s contains non-finite"):
            hessian_apply(op, lap_sq, np.ones((1, 6, 6)), 0.1, s_bad)


def test_workspace_kernels_allocate_no_grid_arrays():
    # PCG applies the Hessian and the preconditioner in a per-solve
    # workspace; one 64x64 image is 32 KiB, so a peak of 16 KiB rules out
    # any grid-sized temporary.
    rng = np.random.default_rng(46)
    shape, lam = (64, 64), 0.1
    op, _, _ = make_operator(rng, shape, 3)
    lap_sq = laplacian_symbol(shape)
    weights = rng.random((3,) + shape)
    s = rng.standard_normal(shape)
    pre = precond_build(op, lap_sq, weights, lam)
    ws = Workspace(shape, 3)
    penalty = _penalty_symbol(lap_sq, lam)
    kernels = {
        "hessian": (
            lambda: _hessian_kernel(op, penalty, weights, ws, s),
            hessian_apply(op, lap_sq, weights, lam, s),
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
