import numpy as np
import pytest

from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import LossFunction
from robustdeblur.operators import BlurOperator
from robustdeblur.precond import build_dhat, precond_build
from robustdeblur.solver import default_start, projected_pcg
from robustdeblur.testbed import make_instance
from robustdeblur.operators import hessian_apply

from oracles import dense_blur_matrix, dense_laplacian

# Odd widths and a two-row grid exercise the half-spectrum layout, where the
# inverse transform must be told the output width.
ODD_AND_THIN = ((5, 7), (7, 6), (2, 9))


def random_operator(rng, shape, frames=1):
    psfs = []
    for _ in range(frames):
        p = rng.random(shape)
        psfs.append(p / p.sum())
    centers = [(shape[0] // 2, shape[1] // 2)] * frames
    return BlurOperator(psfs, centers), psfs, centers


def test_unit_weights_give_unit_scaling():
    rng = np.random.default_rng(80)
    op, _, _ = random_operator(rng, (8, 8))
    dhat = build_dhat(op, np.ones((1, 8, 8)))
    assert np.max(np.abs(dhat - 1.0)) < 1e-12


def test_constant_weights_scale_as_sqrt():
    rng = np.random.default_rng(81)
    op, _, _ = random_operator(rng, (8, 8))
    c = 3.7
    dhat = build_dhat(op, np.full((1, 8, 8), c))
    assert np.max(np.abs(dhat - np.sqrt(c))) < 1e-12
    pre = precond_build(op, np.full((1, 8, 8), c), 0.9)
    assert pre.lambda_hat == pytest.approx(0.9 / c, rel=1e-12)


def test_dhat_matches_dense_diagonal_ratio():
    rng = np.random.default_rng(82)
    for shape in ((6, 6),) + ODD_AND_THIN:
        op, psfs, centers = random_operator(rng, shape)
        D = rng.random((1,) + shape) + 0.1
        A = dense_blur_matrix(psfs[0], centers[0])
        num = np.diag(A.T @ np.diag(D.ravel()) @ A)
        den = np.diag(A.T @ A)
        expected = np.sqrt(num / den).reshape(shape)
        assert np.max(np.abs(build_dhat(op, D) - expected)) < 1e-8, shape


def test_diagonal_equality_dense():
    # With the exact scaling, diag(Dhat A^T A Dhat) reproduces
    # diag(A^T D A) entry for entry.
    rng = np.random.default_rng(83)
    op, psfs, centers = random_operator(rng, (8, 8))
    D = rng.random((1, 8, 8)) + 0.05
    A = dense_blur_matrix(psfs[0], centers[0])
    dhat = build_dhat(op, D).ravel()
    lhs = np.diag(A.T @ np.diag(D.ravel()) @ A)
    rhs = np.diag(np.diag(dhat) @ A.T @ A @ np.diag(dhat))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_delta_psf_unit_weights_zero_lambda_is_identity():
    psf = np.zeros((8, 8))
    psf[0, 0] = 1.0
    op = BlurOperator([psf], [(0, 0)])
    pre = precond_build(op, np.ones((1, 8, 8)), 0.0)
    rng = np.random.default_rng(84)
    r = rng.standard_normal((8, 8))
    assert np.max(np.abs(pre.solve(r) - r)) < 1e-12


def test_solve_round_trips_against_dense_m():
    rng = np.random.default_rng(85)
    for shape in ((6, 6),) + ODD_AND_THIN:
        op, psfs, centers = random_operator(rng, shape)
        D = rng.random((1,) + shape) + 0.2
        lam = 0.4
        pre = precond_build(op, D, lam)
        A = dense_blur_matrix(psfs[0], centers[0])
        L = dense_laplacian(shape)
        dh = np.diag(pre.dhat.ravel())
        M = dh @ (A.T @ A + pre.lambda_hat * (L.T @ L)) @ dh
        r = rng.standard_normal(shape)
        back = M @ pre.solve(r).ravel()
        assert np.max(np.abs(back - r.ravel())) < 1e-9, shape


def test_solve_is_symmetric_positive_definite():
    rng = np.random.default_rng(86)
    op, _, _ = random_operator(rng, (8, 8), frames=2)
    D = rng.random((2, 8, 8))
    pre = precond_build(op, D, 0.15)
    for _ in range(5):
        r = rng.standard_normal((8, 8))
        t = rng.standard_normal((8, 8))
        assert np.sum(r * pre.solve(r)) > 0
        assert np.sum(t * pre.solve(r)) == pytest.approx(
            np.sum(r * pre.solve(t)), rel=1e-10
        )


def test_solve_transform_budget():
    rng = np.random.default_rng(87)
    op, _, _ = random_operator(rng, (16, 16))
    pre = precond_build(op, rng.random((1, 16, 16)), 0.1)
    r = rng.standard_normal((16, 16))
    with count_transforms() as c:
        pre.solve(r)
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (1, 1, 3, 0)


def test_constant_weights_make_preconditioner_exact():
    # M then equals the true Hessian, so PCG converges essentially at once.
    rng = np.random.default_rng(88)
    op, _, _ = random_operator(rng, (16, 16))
    c = 2.3
    weights = np.full((1, 16, 16), c)
    lam = 0.05
    pre = precond_build(op, weights, lam)

    def hess(v):
        return hessian_apply(op, weights, lam, v)

    rhs = rng.standard_normal((16, 16))
    active = np.zeros((16, 16), dtype=bool)
    s, iters = projected_pcg(hess, rhs, active, pre.solve, tol=1e-10, maxit=50)
    assert iters <= 2
    assert np.max(np.abs(hess(s) - rhs)) < 1e-8 * np.max(np.abs(rhs))


def test_ill_conditioned_symbol_is_named():
    # The satellite instance's Gaussian OTF underflows to about 1e-36 of its
    # peak; with lam = 0 nothing lifts the symbol, so inverting it would
    # only amplify rounding.
    inst = make_instance("satellite", (64, 64))
    obj = inst.objective(LossFunction(), 0.0)
    weights = obj.hessian_weights(default_start(inst.observed)).d
    with pytest.raises(ValueError, match="ill-conditioned .* min/max ratio"):
        precond_build(inst.op, weights, 0.0)


def test_floor_keeps_dhat_positive():
    rng = np.random.default_rng(89)
    op, _, _ = random_operator(rng, (8, 8))
    D = np.zeros((1, 8, 8))
    D[0, 2, 3] = 5.0  # single surviving weight
    dhat = build_dhat(op, D)
    assert dhat.min() > 0
    assert dhat.min() >= 1e-6 * dhat.max()


def test_build_dhat_validation():
    rng = np.random.default_rng(90)
    op, _, _ = random_operator(rng, (8, 8))
    with pytest.raises(ValueError):
        build_dhat(op, np.zeros((1, 8, 8)))  # fully saturated
    with pytest.raises(ValueError):
        build_dhat(op, -np.ones((1, 8, 8)))
    with pytest.raises(ValueError):
        precond_build(op, np.ones((1, 8, 8)), -1.0)


@pytest.mark.parametrize(
    "dhat",
    [np.full((8, 8), np.nan), np.ones((4, 4)), -np.ones((8, 8)), np.zeros((8, 8))],
    ids=["nan", "other_grid", "negative", "zero"],
)
def test_precond_build_names_a_bad_dhat(dhat):
    # A caller's dhat is checked, not trusted: NaN would give lambda_hat =
    # nan, another grid a preconditioner for it, and zeros a division by
    # zero.  Each fails with one line naming dhat.
    rng = np.random.default_rng(92)
    op, _, _ = random_operator(rng, (8, 8))
    weights = np.ones((1, 8, 8))
    pre = precond_build(op, weights, 0.1, dhat=build_dhat(op, weights))
    assert np.isfinite(pre.lambda_hat)
    with pytest.raises(ValueError, match="^dhat") as err:
        precond_build(op, weights, 0.1, dhat=dhat)
    assert "\n" not in str(err.value)


def test_solve_names_a_residual_off_the_grid():
    # a residual of another shape would fail as a numpy broadcast error,
    # or broadcast silently when it has one row
    rng = np.random.default_rng(91)
    op, _, _ = random_operator(rng, (16, 16))
    pre = precond_build(op, np.ones((1, 16, 16)), 0.1)
    assert pre.solve(np.ones((16, 16))).shape == (16, 16)
    for bad in (np.ones((15, 16)), np.ones((1, 16))):
        with pytest.raises(ValueError,
                           match=r"^r shape \(\d+, 16\) != grid \(16, 16\)$"):
            pre.solve(bad)
