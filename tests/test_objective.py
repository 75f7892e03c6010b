import tracemalloc

import numpy as np
import pytest

from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import (
    BETA_95,
    LossFunction,
    Objective,
    chain_rule_weights,
    convexity_diagnostic,
    loss_eval,
    talwar_weights,
)
from robustdeblur.operators import BlurOperator, hessian_apply, laplacian_symbol

from oracles import dense_blur_matrix, dense_laplacian


def identity_operator(shape):
    psf = np.zeros(shape)
    psf[0, 0] = 1.0
    return BlurOperator([psf], [(0, 0)])


def random_operator(rng, shape):
    psf = rng.random(shape)
    psf /= psf.sum()
    center = (shape[0] // 2, shape[1] // 2)
    return BlurOperator([psf], [center]), psf, center


def inlier_instance(seed, shape=(6, 6), lam=0.3):
    """An instance whose residuals all sit well inside the Talwar threshold."""
    rng = np.random.default_rng(seed)
    op, _, _ = random_operator(rng, shape)
    x_true = 5.0 + 10.0 * rng.random(shape)
    clean = op.apply(x_true)[0]
    sigma = 2.0
    b = clean + rng.standard_normal(shape)
    obj = Objective(op, b[None], sigma, LossFunction(), lam)
    x = x_true + 0.3 * rng.random(shape)
    t = obj.scaled_residual(x)
    assert np.all(np.abs(np.abs(t) - BETA_95) > 1e-3)  # away from the kink
    assert np.all(np.abs(t) < BETA_95)
    return obj, x


# -- loss_eval ----------------------------------------------------------


def test_talwar_quadratic_branch_at_zero():
    assert loss_eval(LossFunction(), 0.0) == (0.0, 0.0, 1.0)


def test_talwar_saturated_value():
    rho, drho, ddrho = loss_eval(LossFunction(), 5.0)
    assert rho == pytest.approx(3.9060125)  # beta^2/2 at beta = 2.795
    assert drho == 0.0 and ddrho == 0.0


def test_talwar_symmetry():
    rp, _, _ = loss_eval(LossFunction(), 1.0)
    rm, _, _ = loss_eval(LossFunction(), -1.0)
    assert rp == rm == pytest.approx(0.5)


def test_talwar_kink_uses_inlier_branch():
    beta = 2.0
    rho, drho, ddrho = loss_eval(LossFunction(beta=beta), beta)
    assert (rho, drho, ddrho) == (2.0, 2.0, 1.0)


def test_infinite_beta_is_plain_quadratic():
    loss = LossFunction(beta=np.inf)
    t = np.linspace(-100, 100, 41)
    rho, drho, ddrho = loss_eval(loss, t)
    assert np.allclose(rho, 0.5 * t * t)
    assert np.allclose(drho, t)
    assert np.all(ddrho == 1.0)


@pytest.mark.parametrize("kind", ["talwar", "huber", "fair", "logistic"])
def test_loss_shape_conditions(kind):
    # Nonnegative, zero at zero, even, nondecreasing on t >= 0.
    loss = LossFunction(kind, 1.7)
    t = np.linspace(0.0, 10.0, 201)
    rho, drho, _ = loss_eval(loss, t)
    rho_neg, _, _ = loss_eval(loss, -t)
    assert rho[0] == 0.0
    assert np.all(rho >= 0)
    assert np.allclose(rho, rho_neg, atol=1e-14)
    assert np.all(np.diff(rho) >= -1e-14)
    assert np.all(drho >= 0)


def test_loss_function_validation():
    with pytest.raises(ValueError):
        LossFunction("cauchy")
    with pytest.raises(ValueError):
        LossFunction("talwar", 0.0)
    with pytest.raises(ValueError):
        LossFunction("huber", -1.0)


# -- scaled residual and objective value --------------------------------


def test_scaled_residual_zero_when_model_fits():
    op = identity_operator((4, 4))
    b = np.full((4, 4), 9.0)
    obj = Objective(op, b[None], sigma=1.0)
    assert np.all(obj.scaled_residual(b) == 0.0)


def test_scaled_residual_single_pixel_formula():
    op = identity_operator((2, 2))
    x = np.full((2, 2), 3.0)
    b = np.full((2, 2), 7.0)
    obj = Objective(op, b[None], sigma=1.0)
    # ( [Ax]=3 minus b=7 ) over sqrt(3 + 1) = -2
    assert np.allclose(obj.scaled_residual(x), -2.0)


def test_scaled_residual_matches_elementwise_oracle():
    rng = np.random.default_rng(50)
    op, psf, center = random_operator(rng, (6, 6))
    x = rng.random((6, 6)) * 8
    b = rng.random((6, 6)) * 8
    sigma = 1.5
    obj = Objective(op, b[None], sigma)
    A = dense_blur_matrix(psf, center)
    ax = (A @ x.ravel()).reshape(6, 6)
    expected = (ax - b) / np.sqrt(ax + sigma**2)
    assert np.max(np.abs(obj.scaled_residual(x)[0] - expected)) < 1e-12


def test_value_zero_at_perfect_fit():
    op = identity_operator((4, 4))
    b = np.full((4, 4), 6.0)
    obj = Objective(op, b[None], sigma=1.0, lam=0.0)
    assert obj.value(b) == 0.0


def test_value_saturates_at_m_beta_sq_half():
    op = identity_operator((4, 4))
    x = np.full((4, 4), 10.0)
    b = x + 300.0  # every scaled residual far beyond the threshold
    obj = Objective(op, b[None], sigma=1.0)
    assert obj.value(x) == pytest.approx(16 * BETA_95**2 / 2)


def test_value_matches_dense_oracle_with_penalty():
    rng = np.random.default_rng(51)
    # Odd widths and a two-row grid exercise the half-spectrum Parseval
    # weights of the penalty.
    for shape in ((6, 6), (5, 7), (7, 6), (2, 9)):
        op, psf, center = random_operator(rng, shape)
        x = 2.0 + rng.random(shape) * 5
        b = 2.0 + rng.random(shape) * 5
        sigma, lam, beta = 1.2, 0.7, 1.1
        obj = Objective(op, b[None], sigma, LossFunction(beta=beta), lam)
        A = dense_blur_matrix(psf, center)
        L = dense_laplacian(shape)
        ax = A @ x.ravel()
        t = (ax - b.ravel()) / np.sqrt(ax + sigma**2)
        rho = np.where(np.abs(t) <= beta, 0.5 * t**2, 0.5 * beta**2)
        expected = rho.sum() + 0.5 * lam * np.sum((L @ x.ravel()) ** 2)
        assert obj.value(x) == pytest.approx(expected, rel=1e-10), shape


def test_value_rejects_infeasible_x():
    op = identity_operator((4, 4))
    obj = Objective(op, np.ones((1, 4, 4)), sigma=1.0)
    x = np.ones((4, 4))
    x[2, 2] = -0.5
    with pytest.raises(ValueError):
        obj.value(x)
    with pytest.raises(ValueError):
        obj.gradient(x)


def test_objective_validation():
    op = identity_operator((4, 4))
    with pytest.raises(ValueError):
        Objective(op, np.ones((2, 4, 4)), sigma=1.0)  # frame mismatch
    with pytest.raises(ValueError):
        Objective(op, np.ones((1, 4, 4)), sigma=-1.0)
    with pytest.raises(ValueError):
        Objective(op, np.ones((1, 4, 4)), sigma=1.0, lam=-2.0)


# -- gradient -----------------------------------------------------------


def numeric_gradient(obj, x):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        h = 1e-6 * (1.0 + abs(x[idx]))
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (obj.value(xp) - obj.value(xm)) / (2.0 * h)
    return g


def test_gradient_zero_at_perfect_fit():
    op = identity_operator((4, 4))
    b = np.full((4, 4), 6.0)
    obj = Objective(op, b[None], sigma=1.0, lam=0.0)
    assert np.max(np.abs(obj.gradient(b))) < 1e-14


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_gradient_matches_finite_differences(seed):
    obj, x = inlier_instance(seed)
    g = obj.gradient(x)
    fd = numeric_gradient(obj, x)
    assert np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-5


def test_saturated_entry_contributes_nothing():
    obj, x = inlier_instance(63)
    b = obj.data[0].copy()
    b[1, 1] += 1e6  # drive one residual far past the threshold
    corrupted = Objective(obj.op, b[None], obj.sigma, obj.loss, obj.lam)
    report = corrupted.hessian_weights(x)
    assert not report.inlier_mask[0, 1, 1]
    assert report.z[0, 1, 1] == 0.0 and report.d[0, 1, 1] == 0.0
    # moving the saturated value further changes nothing downstream
    b2 = b.copy()
    b2[1, 1] += 1e6
    again = Objective(obj.op, b2[None], obj.sigma, obj.loss, obj.lam)
    assert np.array_equal(corrupted.gradient(x), again.gradient(x))
    assert corrupted.value(x) == again.value(x)


# -- Hessian weights ----------------------------------------------------


def test_hessian_weight_single_pixel_formula():
    op = identity_operator((2, 2))
    x = np.full((2, 2), 3.0)
    b = np.full((2, 2), 3.0)
    obj = Objective(op, b[None], sigma=1.0)
    report = obj.hessian_weights(x)
    # (b + sigma^2)^2 / ([Ax] + sigma^2)^3 = 16/64
    assert np.allclose(report.d, 0.25)
    assert np.all(report.inlier_mask)


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_hessian_product_matches_directional_fd(seed):
    obj, x = inlier_instance(seed)
    rng = np.random.default_rng(seed + 1000)
    s = rng.standard_normal(x.shape)
    report = obj.hessian_weights(x)
    hs = hessian_apply(obj.op, report.d, obj.lam, s)
    h = 1e-6
    fd = (obj.gradient(x + h * s) - obj.gradient(x - h * s)) / (2.0 * h)
    assert np.max(np.abs(hs - fd)) / max(np.max(np.abs(fd)), 1.0) < 1e-4


def test_chain_rule_equals_closed_forms_on_inliers():
    rng = np.random.default_rng(73)
    n = 10_000
    ax = rng.uniform(0.5, 200.0, n)
    sigma = rng.uniform(0.5, 8.0, n)
    # keep residuals inside the threshold so the branches agree
    b = ax + rng.uniform(-1.0, 1.0, n) * np.sqrt(ax + sigma**2)
    loss = LossFunction()
    z_gen, d_gen = chain_rule_weights(loss, ax, b, sigma)
    z_cf = np.zeros(n)
    d_cf = np.zeros(n)
    for i in range(n):
        zi, di, _ = talwar_weights(ax[i], b[i], sigma[i], loss.beta)
        z_cf[i], d_cf[i] = zi, di
    assert np.max(np.abs(z_gen - z_cf)) < 1e-12
    assert np.max(np.abs(d_gen - d_cf)) < 1e-12


def test_talwar_diagonal_nonnegative_on_random_instances():
    rng = np.random.default_rng(74)
    for _ in range(20):
        op, _, _ = random_operator(rng, (8, 8))
        x_true = rng.random((8, 8)) * 50
        b = op.apply(x_true)[0] + rng.standard_normal((8, 8)) * 30  # outliers likely
        obj = Objective(op, b[None], sigma=2.0)
        report = obj.hessian_weights(rng.random((8, 8)) * 50)
        assert report.d.min() >= 0.0
        # z and D vanish together off the inlier set
        off = ~report.inlier_mask
        assert np.all(report.z[off] == 0.0)
        assert np.all(report.d[off] == 0.0)


# -- evaluation -----------------------------------------------------------


def evaluation_instance(rng, shape, frames, lam):
    """A multi-frame instance with a few saturated residuals per frame."""
    psfs = [rng.random(shape) for _ in range(frames)]
    psfs = [p / p.sum() for p in psfs]
    op = BlurOperator(psfs, [(shape[0] // 2, shape[1] // 2)] * frames)
    x = 2.0 + 10.0 * rng.random(shape)
    b = op.apply(x) + rng.standard_normal((frames,) + shape)
    b.reshape(frames, -1)[:, :2] += 500.0
    obj = Objective(op, b, 1.5, LossFunction(), lam)
    return obj, x + 0.5 * rng.random(shape)


def test_evaluation_agrees_with_standalone_methods():
    rng = np.random.default_rng(75)
    for shape, frames in (((64, 64), 3), ((5, 7), 2), ((7, 6), 1), ((2, 9), 3)):
        obj, x = evaluation_instance(rng, shape, frames, lam=0.4)
        ev = obj.evaluate(x)
        assert ev.value == obj.value(x), shape
        rho, _, _ = loss_eval(obj.loss, obj.scaled_residual(x))
        sq = laplacian_symbol(shape)
        penalty = np.sum(sq * np.abs(np.fft.fft2(x)) ** 2) / x.size
        expected = float(np.sum(rho)) + 0.5 * obj.lam * penalty
        assert ev.value == pytest.approx(expected, rel=1e-12), shape
        # A^T z plus the penalty gradient, the latter as a zero-weight Hessian
        z_ref, d_ref, inlier_ref = talwar_weights(
            obj.op.apply(x), obj.data, obj.sigma, obj.loss.beta
        )
        g_ref = obj.op.apply_adjoint(z_ref) + hessian_apply(
            obj.op, np.zeros_like(d_ref), obj.lam, x
        )
        g = obj.gradient_at(ev)
        scale = np.max(np.abs(g_ref))
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * scale, shape
        assert np.max(np.abs(g - obj.gradient(x))) <= 1e-12 * scale, shape
        report = obj.hessian_weights(x)
        assert not inlier_ref.all() and inlier_ref.any()
        for got, ref, want in (
            (ev.z, report.z, z_ref),
            (ev.d, report.d, d_ref),
            (ev.inlier_mask, report.inlier_mask, inlier_ref),
        ):
            assert np.array_equal(got, ref) and np.array_equal(got, want), shape
            assert not got.flags.writeable


def test_evaluation_transform_budget():
    rng = np.random.default_rng(76)
    for shape, frames in (((64, 64), 3), ((5, 7), 2), ((7, 6), 1), ((2, 9), 3)):
        for lam in (0.0, 0.4):
            obj, x = evaluation_instance(rng, shape, frames, lam)
            with count_transforms() as c:
                ev = obj.evaluate(x)
            assert (c.fft2, c.ifft2) == (1, frames), shape
            with count_transforms() as c:
                obj.gradient_at(ev)
            # the penalty term keeps its own inverse transform
            assert (c.fft2, c.ifft2) == (frames, 1 + (lam > 0)), shape


# -- convexity diagnostic -----------------------------------------------


def sample_grid():
    ax = np.logspace(-1, 6, 60)
    samples = []
    for a in ax:
        for b in (0.0, 1.0, 25.0, 300.0):
            for sigma in (0.5, 5.0):
                samples.append((a, b, sigma))
    return samples


def test_talwar_diagnostic_nonnegative_everywhere():
    report = convexity_diagnostic(LossFunction(), sample_grid())
    assert report.min_value >= 0.0
    assert report.min_sign >= 0


def test_huber_diagnostic_finds_negative_entry():
    # Push [Ax] far above b + sigma^2: the saturated Huber branch keeps
    # rho' = beta while the weight derivative terms turn negative.
    b, sigma = 10.0, 2.0
    ax = np.linspace(b + sigma**2, 1e6, 2000)
    samples = [(a, b, sigma) for a in ax]
    report = convexity_diagnostic(LossFunction("huber"), samples)
    assert report.min_value < 0.0
    assert report.min_sign == -1


@pytest.mark.parametrize("samples, reason", [
    ([(1.0, 2.0)], "samples must be \\(ax, b, sigma\\) triples"),
    ([(-4.0, 1.0, 2.0)], "samples require ax \\+ sigma\\^2 > 0"),
])
def test_diagnostic_rejects_malformed_samples(samples, reason):
    with pytest.raises(ValueError, match=reason):
        convexity_diagnostic(LossFunction(), samples)


@pytest.mark.parametrize("kind", ["talwar", "huber", "fair", "logistic"])
def test_zero_residual_diagonal_nonnegative(kind):
    # At r = 0 the diagonal reduces to w^2 rho''(0) >= 0 for every loss.
    samples = [(a, a, s) for a in (0.5, 5.0, 100.0) for s in (0.1, 3.0)]
    report = convexity_diagnostic(LossFunction(kind), samples)
    assert report.min_value >= 0.0


def test_an_objective_keeps_no_frame_stack():
    # Construction holds the penalty symbol (one half spectrum) and its
    # real temporary, and no (b + sigma^2)^2 stack: an evaluation forms it
    # one frame batch at a time in its workspace.
    rng = np.random.default_rng(64)
    shape = (128, 128)
    op = BlurOperator([np.full(shape, 1.0 / shape[0] / shape[1])] * 3, [(0, 0)] * 3)
    data = rng.random((3,) + shape)
    Objective(op, data, 1.0, lam=0.1)  # warm-up: the Laplacian symbol is kept per grid
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        obj = Objective(op, data, 1.0, lam=0.1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * data[0].nbytes, peak / data[0].nbytes
    assert obj.evaluate(np.ones(shape)).value > 0
