import math

import numpy as np
import pytest

from robustdeblur.gcv import (
    GcvOptions,
    bounded_minimize,
    gcv_eval,
    minimize_gcv,
    rademacher_probe,
    robust_weights,
    trace_term,
    write_gcv_trace,
)
from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import BETA_95, LossFunction, Objective, loss_eval
from robustdeblur.operators import BlurOperator
from robustdeblur.solver import SolverOptions, projected_newton
from robustdeblur.testbed import default_start, make_instance

from oracles import dense_blur_matrix, dense_laplacian


def identity_operator(shape):
    psf = np.zeros(shape)
    psf[0, 0] = 1.0
    return BlurOperator.from_psfs([psf], [(0, 0)])


# -- robust weights ------------------------------------------------------


def test_inlier_weight_formula():
    op = identity_operator((2, 2))
    b = np.full((2, 2), 3.0)
    obj = Objective(op, b[None], sigma=1.0)
    W = robust_weights(obj, b)  # [Ax] = 3, sigma^2 = 1 -> 1/sqrt(4)
    assert np.allclose(W, 0.5)


def test_saturated_weight_caps_contribution_at_beta():
    op = identity_operator((3, 3))
    x = np.full((3, 3), 10.0)
    b = x.copy()
    b[0, 0] -= 500.0  # residual r = +500 on one entry
    b[2, 2] += 400.0  # residual r = -400 on another
    obj = Objective(op, b[None], sigma=2.0)
    W = robust_weights(obj, x)
    r = obj.op.apply(x) - obj.data
    wr = (W * r)[0]
    assert abs(abs(wr[0, 0]) - BETA_95) < 1e-12
    assert abs(abs(wr[2, 2]) - BETA_95) < 1e-12


def test_weighted_residual_energy_is_twice_the_loss():
    inst = make_instance("satellite", (16, 16), outlier_fraction=0.1,
                         noise_seed=61, outlier_seed=62)
    obj = inst.objective(LossFunction(), lam=0.0)
    rng = np.random.default_rng(63)
    for _ in range(3):
        x = rng.random((16, 16)) * 200.0
        W = robust_weights(obj, x)
        r = obj.op.apply(x) - obj.data
        rho, _, _ = loss_eval(obj.loss, obj.scaled_residual(x))
        assert np.sum((W * r) ** 2) == pytest.approx(
            2.0 * np.sum(rho), rel=1e-10
        )


def test_each_saturated_entry_adds_beta_squared():
    op = identity_operator((4, 4))
    x = np.full((4, 4), 5.0)
    b = x.copy()
    b.ravel()[[1, 7, 11]] += 1e4
    obj = Objective(op, b[None], sigma=1.0)
    W = robust_weights(obj, x)
    r = obj.op.apply(x) - obj.data
    saturated = np.abs(obj.scaled_residual(x)) > BETA_95
    assert saturated.sum() == 3
    assert np.sum((W * r)[saturated] ** 2) == pytest.approx(3 * BETA_95**2)


# -- trace estimation ----------------------------------------------------


def test_probe_is_deterministic_sign_vector():
    v1 = rademacher_probe((1, 16, 16), seed=5)
    v2 = rademacher_probe((1, 16, 16), seed=5)
    assert np.array_equal(v1, v2)
    assert set(np.unique(v1)) == {-1.0, 1.0}
    assert not np.array_equal(v1, rademacher_probe((1, 16, 16), seed=6))


def test_single_probe_is_exact_on_diagonal_matrices():
    rng = np.random.default_rng(64)
    d = rng.standard_normal(64)
    v = rademacher_probe((64,), seed=1)
    estimate = float(v @ (d * v))  # v^T diag(d) v with v_i^2 = 1
    assert estimate == pytest.approx(d.sum(), rel=1e-12)


def test_probe_average_is_unbiased_on_symmetric_matrix():
    rng = np.random.default_rng(65)
    B = rng.standard_normal((64, 64))
    M = B @ B.T  # symmetric, trace of useful size
    true = np.trace(M)
    estimates = [
        float(v @ (M @ v))
        for v in (rademacher_probe((64,), seed=s) for s in range(200))
    ]
    assert abs(np.mean(estimates) - true) < 0.05 * true


def interior_instance(seed, shape=(8, 8), lam=0.05):
    """Instance whose solution keeps every pixel strictly positive."""
    rng = np.random.default_rng(seed)
    h, w = shape
    yy = np.arange(h)[:, None] - h // 2
    xx = np.arange(w)[None, :] - w // 2
    psf = np.exp(-0.5 * ((yy / 1.5) ** 2 + (xx / 1.5) ** 2))
    psf /= psf.sum()
    center = (h // 2, w // 2)
    op = BlurOperator.from_psfs([psf], [center])
    x_true = 20.0 + 30.0 * rng.random(shape)
    b = op.apply(x_true)[0] + 2.0 * rng.standard_normal(shape)
    obj = Objective(op, b[None], sigma=2.0, loss=LossFunction(), lam=lam)
    x_lam, report = projected_newton(obj, np.maximum(b, 0.0))
    assert report.termination == "converged"
    assert x_lam.min() > 0
    return obj, x_lam, psf, center


def test_trace_term_matches_dense_influence_matrix():
    obj, x_lam, psf, center = interior_instance(66)
    lam = obj.lam
    probe = rademacher_probe((1, 8, 8), seed=3)

    A = dense_blur_matrix(psf, center)
    L = dense_laplacian((8, 8))
    W = robust_weights(obj, x_lam).ravel()
    H = A.T @ np.diag(W**2) @ A + lam * (L.T @ L)
    v = probe.ravel()
    y = np.linalg.solve(H, A.T @ (W * v))
    expected = v @ v - v @ (W * (A @ y))

    for use_preconditioner in (False, True):
        estimate, reliable = trace_term(
            obj, x_lam, lam, probe, inner_cg_tol=1e-12, inner_cg_maxit=2000,
            use_preconditioner=use_preconditioner,
        )
        assert reliable
        assert estimate == pytest.approx(expected, rel=1e-6)

        # the default truncated solve lands close to the tight one
        loose, _ = trace_term(
            obj, x_lam, lam, probe, use_preconditioner=use_preconditioner
        )
        assert loose == pytest.approx(expected, rel=1e-2)


def test_capped_trace_solve_is_unreliable():
    obj, x_lam, _, _ = interior_instance(66)
    probe = rademacher_probe((1, 8, 8), seed=3)
    _, reliable = trace_term(obj, x_lam, obj.lam, probe, inner_cg_maxit=1)
    assert reliable is False


def test_preconditioned_trace_term_agrees_with_fewer_transforms():
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    lam = 1e-3
    obj = inst.objective(LossFunction(), lam)
    x_lam, report = projected_newton(obj, default_start(inst.observed))
    assert report.termination == "converged"
    probe = rademacher_probe(inst.observed.shape, seed=6)
    estimates, transforms = {}, {}
    for use_preconditioner in (False, True):
        with count_transforms() as tally:
            estimates[use_preconditioner], reliable = trace_term(
                obj, x_lam, lam, probe, use_preconditioner=use_preconditioner
            )
        assert reliable
        transforms[use_preconditioner] = tally.fft2 + tally.ifft2
    assert estimates[True] == pytest.approx(estimates[False], rel=1e-2)
    assert transforms[True] < transforms[False]


def test_trace_term_approaches_residual_count_for_huge_lambda():
    inst = make_instance("satellite", (16, 16), noise_seed=67)
    m = inst.observed.size
    lam = 1e8
    obj = inst.objective(LossFunction(), lam)
    x_lam, _ = projected_newton(obj, np.maximum(inst.observed[0], 0.0))
    probe = rademacher_probe(inst.observed.shape, seed=4)
    estimate, _ = trace_term(obj, x_lam, lam, probe)
    # the limit is m-1, not m: the smoothing penalty cannot suppress the
    # constant mode; a single probe adds a couple units of variance on top
    assert abs(estimate - m) <= 4.0


# -- functional evaluation and minimization ------------------------------


def test_gcv_eval_is_deterministic_and_self_consistent():
    inst = make_instance("satellite", (16, 16), outlier_fraction=0.02,
                         noise_seed=68, outlier_seed=69)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(probe_seed=11)
    warm = np.maximum(inst.observed.mean(axis=0), 0.0)
    first = gcv_eval(obj, 1e-4, warm, opts)
    second = gcv_eval(obj, 1e-4, warm, opts)
    assert first.gcv_value == second.gcv_value
    assert first.trace_estimate == second.trace_estimate
    assert np.array_equal(first.x, second.x)

    # numerator recomputed elementwise, and the assembled ratio
    W = robust_weights(obj.with_lambda(1e-4), first.x)
    r = obj.op.apply(first.x) - obj.data
    assert first.numerator == pytest.approx(
        float(np.sum((W * r) ** 2)), rel=1e-12
    )
    m = obj.n_residuals
    assert first.gcv_value == pytest.approx(
        m * first.numerator / first.trace_estimate**2, rel=1e-12
    )


def test_bounded_minimize_finds_unimodal_minimum():
    f = lambda lam: (lam - 0.031) ** 2 + 5.0
    got = bounded_minimize(f, 0.0, 0.1, x_tol=1e-8)
    assert abs(got - 0.031) < 1e-6
    grid = np.linspace(0.0, 0.1, 1001)
    grid_argmin = grid[np.argmin(f(grid))]
    assert abs(got - grid_argmin) <= grid[1] - grid[0]


def _search_panel(lo, hi):
    """Functions named by shape, each with its minimizer placed in [lo, hi]."""
    width = hi - lo
    for frac in (0.1, 0.37, 0.5, 0.93):
        c = lo + frac * width
        yield f"smooth {frac}", lambda x, c=c: (
            ((x - c) / width) ** 2 + 0.1 * math.sin(x / width)
        )
        yield f"abs {frac}", lambda x, c=c: abs(x - c)
        yield f"floor-step {frac}", lambda x, c=c: (
            abs(math.floor(8 * (x - c) / width))
        )
        yield f"inf-part {frac}", lambda x, c=c: math.inf if x < c else (x - c) ** 2
    yield "constant", lambda x: 1.0
    yield "increasing", lambda x: x
    yield "decreasing", lambda x: -x


# scipy's scalar arithmetic warns on inf - inf for the "inf-part" functions
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_bounded_minimize_matches_fminbound_step_for_step():
    # bounded_minimize is a port of scipy's bounded Brent method; it must
    # make the same evaluations in the same order and return the same point.
    optimize = pytest.importorskip("scipy.optimize")
    searches = 0
    for lo, hi in ((0.0, 1.0), (-2.0, 3.0), (1e-6, 1e-1)):
        for name, f in _search_panel(lo, hi):
            for x_tol in (1e-8, 1e-5 * (hi - lo)):
                for max_evaluations in (100, 7):
                    ours, theirs = [], []
                    got = bounded_minimize(
                        lambda x: ours.append(x) or f(x), lo, hi, x_tol,
                        max_evaluations,
                    )
                    want = optimize.fminbound(
                        lambda x: theirs.append(x) or f(x), lo, hi, xtol=x_tol,
                        maxfun=max_evaluations, disp=0,
                    )
                    case = (lo, hi, name, x_tol, max_evaluations)
                    assert ours == theirs, case
                    assert got == want, case
                    searches += 1
    assert searches == 3 * 19 * 2 * 2


def test_gcv_search_replays_through_fminbound():
    # The criterion 11 search: every (lambda, gcv) pair it made, replayed
    # through scipy's fminbound, must be asked for in the same order and
    # lead to the same lambda*.
    optimize = pytest.importorskip("scipy.optimize")
    inst = make_instance(
        "satellite", (64, 64), outlier_fraction=0.02, noise_seed=11,
        outlier_seed=12,
    )
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, x_tol=1e-4, probe_seed=0)
    lam_star, evals = minimize_gcv(obj, opts, x0=default_start(inst.observed))
    table = {e.lam: e.gcv_value for e in evals}
    asked = []

    def replay(lam):
        asked.append(float(lam))
        return table[float(lam)]

    want = optimize.fminbound(
        replay, opts.lambda_lo, opts.lambda_hi, xtol=opts.x_tol,
        maxfun=opts.max_evaluations, disp=0,
    )
    assert list(dict.fromkeys(asked)) == [e.lam for e in evals]
    assert lam_star == want


def test_collapsed_bracket_returns_the_point():
    inst = make_instance("satellite", (16, 16), noise_seed=70)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-3, lambda_hi=1e-3, probe_seed=2)
    lam, evals = minimize_gcv(obj, opts)
    assert lam == 1e-3
    assert len(evals) == 1 and evals[0].lam == 1e-3


def test_minimize_gcv_respects_bracket_and_repeats_bitwise():
    inst = make_instance("satellite", (16, 16), outlier_fraction=0.02,
                         noise_seed=71, outlier_seed=72)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-6,
                      probe_seed=5,
                      solver=SolverOptions(newton_maxit=30))
    lam1, evals1 = minimize_gcv(obj, opts)
    lam2, evals2 = minimize_gcv(obj, opts)
    assert lam1 == lam2
    assert len(evals1) == len(evals2)
    assert [e.gcv_value for e in evals1] == [e.gcv_value for e in evals2]
    assert 1e-6 <= lam1 <= 1e-2
    # the endpoint of the bracket is over-regularized for this instance
    hi_value = gcv_eval(obj, 1e-2, evals1[-1].x, opts).gcv_value
    assert hi_value > min(e.gcv_value for e in evals1)


def test_preconditioned_minimize_gcv_repeats_bitwise():
    inst = make_instance("ash", (16, 16), outlier_fraction=0.02,
                         noise_seed=76, outlier_seed=77)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-6,
                      probe_seed=5,
                      solver=SolverOptions(use_preconditioner=True))
    lam1, evals1 = minimize_gcv(obj, opts)
    lam2, evals2 = minimize_gcv(obj, opts)
    assert lam1 == lam2
    assert [e.gcv_value for e in evals1] == [e.gcv_value for e in evals2]
    assert [e.trace_estimate for e in evals1] == [
        e.trace_estimate for e in evals2
    ]
    assert all(np.array_equal(a.x, b.x) for a, b in zip(evals1, evals2))


def test_gcv_trace_csv_schema(tmp_path):
    inst = make_instance("satellite", (16, 16), noise_seed=73)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-4, lambda_hi=1e-4)
    _, evals = minimize_gcv(obj, opts)
    path = tmp_path / "trace.csv"
    write_gcv_trace(path, evals)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=gcv-trace v1"
    assert lines[1] == "lambda,gcv,numerator,trace_estimate"
    assert len(lines) == 2 + len(evals)
    assert len(lines[2].split(",")) == 4


def test_gcv_options_validation():
    with pytest.raises(ValueError):
        GcvOptions(lambda_lo=-1.0)
    with pytest.raises(ValueError):
        GcvOptions(lambda_lo=0.1, lambda_hi=0.01)
    with pytest.raises(ValueError):
        GcvOptions(x_tol=0.0)
    with pytest.raises(ValueError):
        GcvOptions(inner_cg_maxit=0)
