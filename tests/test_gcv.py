import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustdeblur import gcv as gcv_module
from robustdeblur import operators as operators_module
from robustdeblur import precond as precond_module
from robustdeblur import solver as solver_module
from robustdeblur import testbed as testbed_module
from robustdeblur.gcv import (
    GcvOptions,
    _Walk,
    bounded_minimize,
    gcv_eval,
    minimize_gcv,
    _weights_from_fit,
    rademacher_probe,
    trace_term,
    write_gcv_trace,
)
from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import BETA_95, LossFunction, Objective, loss_eval
from robustdeblur.operators import BlurOperator
from robustdeblur.solver import (
    PcgBreakdownError,
    SolverOptions,
    default_start,
    projected_newton,
    projected_pcg,
)
from robustdeblur.testbed import lambda_scan, make_instance

from oracles import dense_blur_matrix, dense_laplacian


def identity_operator(shape):
    psf = np.zeros(shape)
    psf[0, 0] = 1.0
    return BlurOperator([psf], [(0, 0)])


def robust_weights(obj, x):
    """The reweighting W at ``x``, from the fit ``A x`` and inlier mask of
    its evaluation."""
    ev = obj.evaluate(x)
    return _weights_from_fit(obj, ev, ev.ax - obj.data)


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
    op = BlurOperator([psf], [center])
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
        solver = SolverOptions(use_preconditioner=use_preconditioner)
        estimate, reliable = trace_term(
            obj, x_lam, probe,
            GcvOptions(inner_cg_tol=1e-12, inner_cg_maxit=2000, solver=solver),
        )
        assert reliable
        assert estimate == pytest.approx(expected, rel=1e-6)

        # the default truncated solve lands close to the tight one
        loose, _ = trace_term(obj, x_lam, probe, GcvOptions(solver=solver))
        assert loose == pytest.approx(expected, rel=1e-2)


def dense_influence_system(obj, x_lam, psf, center, probe):
    """``(H, rhs)`` of the influence system at ``obj.lam``, as dense arrays."""
    A = dense_blur_matrix(psf, center)
    L = dense_laplacian(psf.shape)
    W = robust_weights(obj, x_lam).ravel()
    H = A.T @ np.diag(W**2) @ A + obj.lam * (L.T @ L)
    return H, A.T @ (W * probe.ravel())


def test_trace_term_reads_the_quadratic_form_to_second_order():
    # From a warm start stopped early, the estimate reads rhs^T y* as
    # rhs^T y + r^T y = 2 rhs^T y - y^T H y, which falls short of it by
    # exactly e^T H e, e = y* - y: second order in the solve's error,
    # where rhs^T y alone is off to first order.
    obj, x_lam, psf, center = interior_instance(66)
    probe = rademacher_probe((1, 8, 8), seed=3)
    v = probe.ravel()
    H, rhs = dense_influence_system(obj, x_lam, psf, center, probe)
    y_star = np.linalg.solve(H, rhs)
    q_star = rhs @ y_star
    # start from the influence solution at twice lambda
    H_start, _ = dense_influence_system(obj.with_lambda(2 * obj.lam), x_lam,
                                        psf, center, probe)
    opts = GcvOptions()
    walk = _Walk(obj, opts, probe=probe)
    walk.y = np.linalg.solve(H_start, rhs).reshape(8, 8)
    estimate, reliable = trace_term(obj, x_lam, probe, opts, _walk=walk)
    assert reliable and 0 < walk.iterations < 20
    y = walk.y.ravel()
    q = v @ v - estimate
    assert q == pytest.approx(2 * rhs @ y - y @ H @ y, rel=1e-10)
    e = y_star - y
    assert q_star - q == pytest.approx(e @ H @ e, abs=1e-10 * q_star)
    assert e @ H @ e > 0
    assert abs(q_star - rhs @ y) > q_star - q


def test_trace_solve_stopped_on_its_start_applies_the_start_residual():
    # A start that already meets the stop test takes 0 iterations, and
    # the estimate still adds r0^T y0 for its residual r0 = rhs - H y0:
    # first when the walk forms the start's product (2k+2 transforms),
    # then at another lambda when it reads the product's lambda-free half
    # (1 transform).
    obj, x_lam, psf, center = interior_instance(66)
    probe = rademacher_probe((1, 8, 8), seed=3)
    v = probe.ravel()
    H, rhs = dense_influence_system(obj, x_lam, psf, center, probe)
    y0 = np.linalg.solve(H, rhs)
    y0 += 1e-4 * np.random.default_rng(0).standard_normal(y0.shape)
    opts = GcvOptions()
    walk = _Walk(obj, opts, probe=probe)
    walk.y = y0.reshape(8, 8)
    for lam, transforms in ((obj.lam, 4), (1.001 * obj.lam, 1)):
        obj_lam = obj.with_lambda(lam)
        H, _ = dense_influence_system(obj_lam, x_lam, psf, center, probe)
        estimate, reliable = trace_term(obj_lam, x_lam, probe, opts,
                                        _walk=walk)
        assert reliable and walk.iterations == 0, lam
        assert walk.transforms == transforms, lam
        assert np.array_equal(walk.y.ravel(), y0), lam
        r0 = rhs - H @ y0
        assert estimate == pytest.approx(v @ v - rhs @ y0 - r0 @ y0,
                                         rel=1e-12), lam
        assert abs(estimate - (v @ v - rhs @ y0)) > 1e-8 * v @ v, lam


def test_capped_trace_solve_is_unreliable():
    obj, x_lam, _, _ = interior_instance(66)
    probe = rademacher_probe((1, 8, 8), seed=3)
    _, reliable = trace_term(obj, x_lam, probe, GcvOptions(inner_cg_maxit=1))
    assert reliable is False


def test_capped_preconditioned_trace_solve_is_redone_without_it():
    # With the data scaled by 1e6 most residuals saturate, and the
    # preconditioned influence solve needs 321 iterations where the plain
    # one needs 159.  A preconditioned solve that reaches the cap is redone
    # without the preconditioner, so its estimate is bitwise the plain one,
    # its iterations count both attempts, and it is unreliable only when
    # the redo reaches the cap too.
    inst = make_instance("satellite", (16, 16), outlier_fraction=0.05)
    data = inst.observed * 1e6
    obj = Objective(inst.op, data, inst.sigma, LossFunction(), 0.1)
    x_lam = projected_newton(obj, default_start(data))[0]
    probe = rademacher_probe(data.shape, seed=0)
    for maxit, reliable in ((200, True), (100, False)):
        results = {}
        for pre in (False, True):
            opts = GcvOptions(inner_cg_maxit=maxit,
                              solver=SolverOptions(use_preconditioner=pre))
            walk = _Walk(obj, opts, probe=probe)
            results[pre] = (trace_term(obj, x_lam, probe, opts, _walk=walk),
                            walk.iterations)
        (plain, plain_iterations), (redone, iterations) = results[False], results[True]
        assert plain == redone == (plain[0], reliable), maxit
        assert iterations == maxit + plain_iterations, maxit


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
                obj, x_lam, probe, GcvOptions(
                    solver=SolverOptions(use_preconditioner=use_preconditioner)
                ),
            )
        assert reliable
        transforms[use_preconditioner] = tally.fft2 + tally.ifft2
    assert estimates[True] == pytest.approx(estimates[False], rel=1e-2)
    assert transforms[True] < transforms[False]


def test_probe_not_shaped_like_the_data_is_rejected():
    # A frame-shaped probe of a 3-frame objective would broadcast into a
    # wrong estimate; gcv_eval rejects it before its Newton solve.
    inst = make_instance("ash", (16, 16), noise_seed=74)
    obj = inst.objective(LossFunction(), 1e-3)
    x = default_start(inst.observed)
    probe = rademacher_probe(inst.observed.shape, seed=0)
    not_finite = probe.copy()
    not_finite[1, 2, 3] = np.nan
    for bad in (probe[0], probe[:2], not_finite):
        with count_transforms() as tally:
            for call in (lambda: trace_term(obj, x, bad),
                         lambda: gcv_eval(obj, 1e-3, x, GcvOptions(), bad)):
                with pytest.raises(ValueError, match=r"shape \(3, 16, 16\)"):
                    call()
        assert tally.fft2 + tally.ifft2 == 0


def test_trace_term_approaches_residual_count_for_huge_lambda():
    inst = make_instance("satellite", (16, 16), noise_seed=67)
    m = inst.observed.size
    lam = 1e8
    obj = inst.objective(LossFunction(), lam)
    x_lam, _ = projected_newton(obj, np.maximum(inst.observed[0], 0.0))
    probe = rademacher_probe(inst.observed.shape, seed=4)
    estimate, _ = trace_term(obj, x_lam, probe)
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
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.1)):
        with pytest.raises(ValueError, match="bounds must be finite"):
            bounded_minimize(f, lo, hi, x_tol=1e-8)


@pytest.mark.parametrize("kwargs, message", [
    ({"x_tol": math.nan}, "x_tol must be finite, got nan"),
    ({"x_tol": -1.0}, "x_tol must be positive, got -1.0"),
    ({"x_tol": 0.0}, "x_tol must be positive, got 0.0"),
    ({"x_tol": "tight"}, "x_tol could not convert string to float: 'tight'"),
    ({"max_evaluations": 2.5}, "max_evaluations must be an integer, got 2.5"),
    ({"max_evaluations": 0}, "max_evaluations must be at least 1, got 0"),
])
def test_bounded_minimize_checks_its_scalars_before_an_evaluation(kwargs, message):
    # a NaN x_tol used to return the first golden-section point, 0.382
    calls = []
    f = lambda v: calls.append(v) or (v - 0.3) ** 2
    with pytest.raises(ValueError) as err:
        bounded_minimize(f, 0.0, 1.0, **{"x_tol": 1e-5, **kwargs})
    assert str(err.value) == message
    assert calls == []
    # a collapsed bracket evaluates nothing, and is checked all the same
    with pytest.raises(ValueError):
        bounded_minimize(f, 1.0, 1.0, **{"x_tol": 1e-5, **kwargs})
    # a value's text is the value
    text = bounded_minimize(f, 0.0, 1.0, x_tol="1e-5", max_evaluations="50")
    assert text == bounded_minimize(f, 0.0, 1.0, x_tol=1e-5, max_evaluations=50)
    assert abs(text - 0.3) < 1e-4


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
        maxfun=gcv_module.MAX_EVALUATIONS, disp=0,
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


def test_preconditioned_ash64_search_converges_every_solve():
    # The seed-1 instance of the 64x64 ash GCV benchmark.  Warm starts near
    # the optimum have a projected gradient at noise level; measured against
    # the start-independent scale they stop at once instead of stepping
    # down to float resolution until the line search fails.
    inst = make_instance("ash", (64, 64), outlier_fraction=0.05,
                         noise_seed=1, outlier_seed=2)
    obj = inst.objective(LossFunction("talwar", BETA_95), 0.0)
    solver = SolverOptions(use_preconditioner=True)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, solver=solver)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # nothing flagged
        _, evals = minimize_gcv(obj, opts, x0=default_start(inst.observed))
    reports = [e.newton_report for e in evals]
    assert [r.termination for r in reports] == ["converged"] * len(evals)
    assert sum(r.iterations for r in reports) <= 40
    assert reports[0].pg_scale == reports[0].pg_norms[0]
    # a warm start that already meets the tolerance takes no step
    met = [r for r in reports
           if r.pg_norms[0] <= solver.newton_tol * r.pg_scale]
    assert len(met) > 1
    assert all(r.iterations == 0 for r in met)


def test_warm_trace_solves_match_cold_ones_for_fewer_transforms():
    # Each influence solve of a search starts from the previous one's
    # solution.  The estimates must agree with cold trace_term calls at the
    # same (lambda, x), while the search's transforms outside its Newton
    # solves fall below what those cold calls cost.  The solves run at
    # 1e-4, tighter than the default, so that rel=1e-5 tests the start
    # rather than the tolerance.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, inner_cg_tol=1e-4,
                      solver=SolverOptions(use_preconditioner=True))
    with count_transforms() as search:
        _, evals = minimize_gcv(obj, opts)
    newton = sum(e.newton_report.counts.fft2 + e.newton_report.counts.ifft2
                 for e in evals)
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    cold_transforms = 0
    for e in evals:
        with count_transforms() as tally:
            cold, reliable = trace_term(obj.with_lambda(e.lam), e.x, probe, opts)
        cold_transforms += tally.fft2 + tally.ifft2
        assert reliable and e.reliable
        assert e.trace_estimate == pytest.approx(cold, rel=1e-5)
    assert search.fft2 + search.ifft2 - newton < cold_transforms


def test_default_influence_tolerance_keeps_the_lambda_star_of_a_tighter_one():
    # The influence solves stop at inner_cg_tol = 1e-2 by default, which
    # must cost the search no precision it can resolve.  On this instance
    # lambda* at the default is within 1.6e-4 (relative) of lambda* at
    # 1e-4 (1e-3: 1.1e-6).  Read as rhs^T y alone, the estimate's error
    # is first order in the solve's, and 1e-2 moved lambda* by 6.4%; the
    # bound is 1%.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    assert opts.inner_cg_tol == 1e-2
    lam_default, _ = minimize_gcv(obj, opts)
    lam_tight, _ = minimize_gcv(obj, replace(opts, inner_cg_tol=1e-4))
    assert lam_default == pytest.approx(lam_tight, rel=1e-2)


def _outside_newton(transforms, evaluation):
    """Transforms of a gcv_eval call spent outside its Newton solve."""
    counts = evaluation.newton_report.counts
    return transforms - counts.fft2 - counts.ifft2


def test_memoized_search_replays_bitwise_without_the_memo(monkeypatch):
    # A search keeps the lambda-free parts of each solve's last iterate and
    # of the default start, so every warm solve after the first reads its
    # start and pg_ref for one penalty transform each instead of 2k+3.  It
    # also keeps the last solution's W, ||W r||^2, A^T W v and dhat, which
    # an evaluation whose solve takes no step reads instead of 2(k+1)
    # transforms (A x comes from the solve's last evaluation); when the previous influence solve also took 0
    # iterations, that evaluation's influence start is unchanged too, and
    # it reads the lambda-free half of the start's Hessian product, 2k+1
    # transforms.  Replaying its lambdas through standalone gcv_eval
    # calls, each with a fresh walk of its own, from the same warm
    # starts and influence starts, must give bitwise the same evaluations.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    calls = []

    def counted_gcv_eval(*args, **kwargs):
        with count_transforms() as tally:
            out = gcv_eval(*args, **kwargs)
        calls.append(_outside_newton(tally.fft2 + tally.ifft2, out))
        return out

    monkeypatch.setattr(gcv_module, "gcv_eval", counted_gcv_eval)
    _, evals = minimize_gcv(obj, opts)
    monkeypatch.undo()
    assert len(calls) == len(evals)
    k = inst.n_frames
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    warm, y = default_start(inst.observed), None
    reused = reused_start = 0
    for i, e in enumerate(evals):
        walk = _Walk(obj, opts, probe=probe)
        walk.y = y
        with count_transforms() as tally:
            again = gcv_eval(obj, e.lam, warm, opts, probe, _walk=walk)
        y = walk.y
        same_x = i > 0 and np.array_equal(e.x, evals[i - 1].x)
        assert same_x == (i > 0 and e.newton_report.iterations == 0), i
        same_start = same_x and evals[i - 1].influence_iterations == 0
        reused += same_x
        reused_start += same_start
        outside = _outside_newton(tally.fft2 + tally.ifft2, again)
        assert outside - calls[i] == ((2 * (k + 1) if same_x else 0)
                                      + (2 * k + 1 if same_start else 0)), i
        assert again.influence_iterations == e.influence_iterations, i
        warm = again.x
        assert np.array_equal(again.x, e.x), i
        assert again.gcv_value == e.gcv_value, i
        assert again.numerator == e.numerator, i
        assert again.trace_estimate == e.trace_estimate, i
        memo, plain = e.newton_report, again.newton_report
        assert memo.objective_trace == plain.objective_trace, i
        assert memo.pg_norms == plain.pg_norms and memo.pg_scale == plain.pg_scale
        assert memo.termination == plain.termination == "converged", i
        saved = (plain.counts.fft2 + plain.counts.ifft2
                 - memo.counts.fft2 - memo.counts.ifft2)
        # the first solve starts at the default start: nothing to read yet
        assert saved == (0 if i == 0 else 2 * (2 * k + 3) - 2), i
    assert 0 < reused < len(evals) - 1
    assert 0 < reused_start < reused


def test_one_walk_serves_the_search_and_the_scan():
    # minimize_gcv and lambda_scan drive the same walk.  Driven without a
    # probe over the lambdas of a preconditioned search, in the order the
    # search visited them, it must make bitwise the search's Newton solves,
    # and a lambda visited again must return its cached point at no
    # transform.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    _, evals = minimize_gcv(obj, opts)
    walk = _Walk(obj, opts)
    for e in evals:
        point = walk.visit(e.lam)
        assert point.lam == e.lam
        assert np.array_equal(point.x, e.x), e.lam
        ours, theirs = point.newton_report, e.newton_report
        assert ours.iterations == theirs.iterations, e.lam
        assert ours.termination == theirs.termination, e.lam
        assert ours.objective_trace == theirs.objective_trace, e.lam
        assert ours.counts == theirs.counts, e.lam
        assert (point.gcv_value, point.numerator, point.trace_estimate,
                point.reliable) == (None, None, None, None)
        assert point.influence_iterations == point.influence_transforms == 0
    assert len(walk.points) == len(evals) > 1
    revisited = walk.points[len(evals) // 2]
    with count_transforms() as tally:
        assert walk.visit(revisited.lam) is revisited
    assert tally.fft2 + tally.ifft2 == 0
    assert len(walk.points) == len(evals)


def test_last_fit_is_read_after_a_zero_step_solve_and_rebuilt_after_a_step():
    # Four evaluations sharing one walk: a solve that steps, two repeats
    # at the same lambda from its solution (no step: the fit is read),
    # then a solve at another lambda that steps (the fit is rebuilt).
    # Each must equal a standalone gcv_eval from the same influence start,
    # which builds its own fit and start product, with 2(k+1) transforms
    # fewer outside the Newton solve for each read of the fit.  The first
    # repeat's influence solve takes 0 iterations, so the second repeat
    # also reads the lambda-free half of its start's product: 2k+1 fewer.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(solver=SolverOptions(use_preconditioner=True))
    k = inst.n_frames
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    walk = _Walk(obj, opts, probe=probe)
    warm = default_start(inst.observed)
    for lam, steps, fewer in ((1e-3, True, 0), (1e-3, False, 2 * (k + 1)),
                              (1e-3, False, 2 * (k + 1) + 2 * k + 1),
                              (2e-2, True, 0)):
        alone_walk = _Walk(obj, opts, probe=probe)
        alone_walk.y = walk.y
        with count_transforms() as shared:
            ev = gcv_eval(obj, lam, warm, opts, probe, _walk=walk)
        with count_transforms() as alone:
            ref = gcv_eval(obj, lam, warm, opts, probe, _walk=alone_walk)
        assert (ev.newton_report.iterations > 0) == steps, lam
        assert ev.newton_report.termination == "converged", lam
        assert np.array_equal(ev.x, ref.x), lam
        assert ev.numerator == ref.numerator, lam
        assert ev.trace_estimate == ref.trace_estimate, lam
        assert ev.gcv_value == ref.gcv_value, lam
        assert ev.influence_iterations == ref.influence_iterations, lam
        assert (_outside_newton(alone.fft2 + alone.ifft2, ref)
                - _outside_newton(shared.fft2 + shared.ifft2, ev)) == fewer, lam
        warm = ev.x


def test_influence_transforms_are_the_trace_solves_share(monkeypatch):
    # LambdaPoint.influence_transforms counts the influence solve alone:
    # outside its Newton solve an evaluation spends those and, when its
    # solution changed, 2(k+1) more on the fit.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    calls = []

    def counted_gcv_eval(*args, **kwargs):
        with count_transforms() as tally:
            out = gcv_eval(*args, **kwargs)
        calls.append(_outside_newton(tally.fft2 + tally.ifft2, out))
        return out

    monkeypatch.setattr(gcv_module, "gcv_eval", counted_gcv_eval)
    _, evals = minimize_gcv(obj, opts)
    k = inst.n_frames
    assert len(calls) == len(evals)
    for i, (e, outside) in enumerate(zip(evals, calls)):
        same_x = i > 0 and np.array_equal(e.x, evals[i - 1].x)
        assert outside - e.influence_transforms == (0 if same_x else 2 * (k + 1)), i
        assert e.influence_transforms >= (2 * k + 4) * e.influence_iterations, i


def test_broken_down_trace_solve_is_unreliable_and_keeps_its_partial_iterate(
        monkeypatch):
    # A breakdown of the influence CG warns, flags the estimate unreliable
    # and estimates from the partial iterate, whose iterations it reports.
    inst = make_instance("satellite", (16, 16), noise_seed=76)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions()
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    partial = np.full(inst.shape, 0.5)

    def breaks_down(*args, **kwargs):
        raise PcgBreakdownError("curvature -1 at iteration 8", partial, 7)

    monkeypatch.setattr(gcv_module, "_hessian_solve", breaks_down)
    walk = _Walk(obj, opts, probe=probe)
    with pytest.warns(RuntimeWarning, match="broke down"):
        ev = gcv_eval(obj, 1e-3, default_start(inst.observed), opts, probe,
                      _walk=walk)
    assert not ev.reliable and ev.influence_iterations == 7
    assert walk.y is partial
    rhs = walk.fit.rhs
    assert ev.trace_estimate == float(np.sum(probe * probe) - np.sum(rhs * partial))


def test_influence_iterations_are_reported_and_a_read_start_costs_one_transform(
        monkeypatch):
    # LambdaPoint.influence_iterations is what the trace solve's PCG
    # returned.  After an influence solve that took 0 iterations, a
    # zero-step evaluation at another lambda > 0 reads its fit and the
    # lambda-free half of its start's Hessian product: outside its Newton
    # solve it spends exactly 1 transform, the product's inverse transform.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(solver=SolverOptions(use_preconditioner=True))
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    returned = []

    def recorded_pcg(*args, **kwargs):
        out = projected_pcg(*args, **kwargs)
        returned.append(out[1])
        return out

    monkeypatch.setattr(solver_module, "projected_pcg", recorded_pcg)
    walk = _Walk(obj, opts, probe=probe)
    first = gcv_eval(obj, 1e-3, default_start(inst.observed), opts, probe,
                     _walk=walk)
    second = gcv_eval(obj, 1e-3, first.x, opts, probe, _walk=walk)
    # a Newton solve's steps run PCG first; the influence solve runs last
    assert len(returned) == first.newton_report.iterations + 2
    assert first.influence_iterations == returned[-2] > 0
    assert second.newton_report.iterations == 0
    assert second.influence_iterations == returned[-1] == 0
    y0 = walk.y
    with count_transforms() as tally:
        third = gcv_eval(obj, 1.0001e-3, second.x, opts, probe, _walk=walk)
    assert third.newton_report.iterations == 0
    assert _outside_newton(tally.fft2 + tally.ifft2, third) == 1
    # bitwise what a fresh walk computes from the same starts
    alone = _Walk(obj, opts, probe=probe)
    alone.y = y0
    ref = gcv_eval(obj, 1.0001e-3, second.x, opts, probe, _walk=alone)
    assert third.trace_estimate == ref.trace_estimate
    assert third.influence_iterations == ref.influence_iterations == 0


def test_minimize_gcv_warns_once_about_flagged_evaluations():
    inst = make_instance("satellite", (16, 16), noise_seed=78)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-4,
                      inner_cg_maxit=1, solver=SolverOptions(newton_maxit=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lam_star, evals = minimize_gcv(obj, opts)
    flagged = [w for w in caught if "GCV search used" in str(w.message)]
    assert len(flagged) == 1 and flagged[0].category is RuntimeWarning
    # every trace solve stops at its 1-iteration cap
    n = len(evals)
    nonconverged = sum(e.newton_report.termination != "converged" for e in evals)
    assert nonconverged > 0
    message = str(flagged[0].message)
    assert message.startswith(
        f"GCV search used {n} of {n} evaluations with reliable=False and "
        f"{nonconverged} whose solve did not end converged; "
        f"lambda*={lam_star:.6e} is one of them"
    )


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


@pytest.mark.parametrize("use_preconditioner", [False, True])
def test_a_rebuilt_fit_reads_a_x_from_the_solves_last_evaluation(
        use_preconditioner):
    # The Newton solve hands its end state to the walk, and that state's
    # evaluation keeps A x, bitwise what op.apply gives.  A fit built from
    # it spends k+1 transforms on A^T W v and, with the preconditioner,
    # k+1 on the scaling.  A fit of a point that is not the state's, in a
    # fresh walk or a copy of the solution, evaluates it first, for k+1
    # more, and builds bitwise the same fit.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    k = inst.n_frames
    probe = rademacher_probe(obj.data.shape, 0)
    opts = GcvOptions(solver=SolverOptions(use_preconditioner=use_preconditioner))
    walk = _Walk(obj, opts, probe=probe)
    x, report = projected_newton(obj.with_lambda(1e-3),
                                 default_start(inst.observed), opts.solver,
                                 _walk=walk)
    assert report.termination == "converged" and report.iterations > 0
    assert walk.state.x is x and not x.flags.writeable
    ev = walk.state.data_ev
    assert ev.ax.tobytes() == obj.op.apply(x).tobytes()
    assert not ev.ax.flags.writeable

    with count_transforms() as hit:
        fit = walk.fit_of(x)
    per_fit = (k + 1) * (1 + use_preconditioner)
    assert hit.fft2 + hit.ifft2 == per_fit
    for other in (_Walk(obj, opts, probe=probe), walk):
        with count_transforms() as miss:
            ref = other.fit_of(x.copy())
        assert miss.fft2 + miss.ifft2 == per_fit + k + 1
        assert ref.numerator == fit.numerator
        assert ref.rhs.tobytes() == fit.rhs.tobytes()
        assert ref.weights.tobytes() == fit.weights.tobytes()
        if use_preconditioner:
            assert ref.dhat.tobytes() == fit.dhat.tobytes()
        else:
            assert ref.dhat is fit.dhat is None


def test_a_search_derives_the_default_start_once(monkeypatch):
    # A walk derives default_start of its data once, rather than deriving
    # it again for the start and pg_ref of each solve.  With x0=None, a GCV
    # search and a scan each start their walk there, so each derives it
    # once in all, and bitwise the same as from x0=default_start.  Both the
    # solver's and the gcv module's names are counted: the walk reads the
    # gcv module's.
    calls = []
    real = solver_module.default_start

    def counted(observed):
        calls.append(None)
        return real(observed)

    inst = make_instance("satellite", (16, 16), noise_seed=73)
    x0 = real(inst.observed)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-4)
    grid = [1e-4, 1e-3, 1e-2]
    _, given = minimize_gcv(obj, opts, x0=x0)
    scanned = lambda_scan(inst, LossFunction(), grid, x0=x0)
    monkeypatch.setattr(solver_module, "default_start", counted)
    monkeypatch.setattr(gcv_module, "default_start", counted, raising=False)
    _, evaluations = minimize_gcv(obj, opts)
    assert len(evaluations) > 1
    assert len(calls) == 1
    assert [e.x.tobytes() for e in evaluations] == [e.x.tobytes() for e in given]
    calls.clear()
    points = lambda_scan(inst, LossFunction(), grid)
    assert len(calls) == 1
    assert [p.x.tobytes() for p in points] == [p.x.tobytes() for p in scanned]


def test_a_search_and_a_scan_each_make_one_walk_with_one_workspace(
        monkeypatch):
    # A GCV search and a plain scan each run one walk, which holds the
    # state all their solves hand on and the one workspace they all run in,
    # with a probe its fits and influence solves too; no solve makes one.
    walks, workspaces = [], []
    real_walk, real_workspace = gcv_module._Walk, gcv_module.Workspace

    class CountedWalk(real_walk):
        def __init__(self, *args, **kwargs):
            walks.append(None)
            super().__init__(*args, **kwargs)

    def counted_workspace(*args, **kwargs):
        workspaces.append(None)
        return real_workspace(*args, **kwargs)

    for module in (gcv_module, testbed_module):
        monkeypatch.setattr(module, "_Walk", CountedWalk)
    for module in (gcv_module, solver_module):
        monkeypatch.setattr(module, "Workspace", counted_workspace)
    inst = make_instance("satellite", (16, 16), noise_seed=73)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-2, x_tol=1e-4)
    _, evaluations = minimize_gcv(inst.objective(LossFunction(), 0.0), opts)
    assert len(evaluations) > 1
    assert (len(walks), len(workspaces)) == (1, 1)
    walks.clear()
    workspaces.clear()
    points = lambda_scan(inst, LossFunction(), [1e-4, 1e-3, 1e-2])
    assert len(points) == 3
    assert (len(walks), len(workspaces)) == (1, 1)


def test_a_search_and_a_scan_in_two_threads_match_their_serial_runs():
    # Concurrent walks share only immutable objects: a GCV search and a
    # scan of one instance, so of one BlurOperator, run in two threads
    # switching every 0.1 ms each return bitwise what they return alone.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=1, outlier_seed=2)
    solver = SolverOptions(use_preconditioner=True)
    opts = GcvOptions(x_tol=1e-4, solver=solver)
    grid = np.geomspace(1e-4, 1e-1, 6)

    def search():
        return minimize_gcv(inst.objective(LossFunction(), 0.0), opts)

    def scan():
        return None, lambda_scan(inst, LossFunction(), grid, solver)

    def summary(result):
        lam_star, points = result
        return lam_star, [(p.lam, p.x.tobytes(), p.gcv_value,
                           p.newton_report.counts) for p in points]

    serial = [summary(run()) for run in (search, scan)]
    results = [None, None]
    start = threading.Barrier(2)

    def run(i, call):
        start.wait()
        results[i] = summary(call())

    threads = [threading.Thread(target=run, args=(i, call))
               for i, call in enumerate((search, scan))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(serial[0][1]) > 1 and len(serial[1][1]) == len(grid)
    assert results == serial


def test_a_walk_reuses_by_holding_and_compares_no_arrays(monkeypatch):
    # Every reuse along a walk is decided by what the walk holds, never by
    # comparing arrays: a preconditioned search and a scan from the default
    # start call numpy.array_equal 0 times.  A start handed in from outside
    # is compared once with the default start, whose pg_ref is then free.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    compared = []
    real = np.array_equal

    def counted(*args, **kwargs):
        compared.append(None)
        return real(*args, **kwargs)

    def comparisons(call, *args, **kwargs):
        compared.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "array_equal", counted)
            out = call(*args, **kwargs)
        return len(compared), out

    n, (_, evaluations) = comparisons(minimize_gcv, obj, opts)
    assert n == 0 and len(evaluations) > 10
    assert sum(e.newton_report.iterations == 0 for e in evaluations) > 1
    n, points = comparisons(lambda_scan, inst, LossFunction(), [1e-3, 2e-3, 4e-3],
                            opts.solver)
    assert n == 0 and len(points) == 3
    n, (_, given) = comparisons(minimize_gcv, obj, opts,
                                x0=default_start(inst.observed))
    assert n == 1
    assert [e.x.tobytes() for e in given] == [e.x.tobytes() for e in evaluations]
    assert ([e.newton_report.counts for e in given]
            == [e.newton_report.counts for e in evaluations])


def test_a_zero_step_warm_solve_reads_what_its_walk_holds(monkeypatch):
    # Inside a walk, a solve that takes no Newton step hands back the state
    # it was handed.  It costs exactly the 2 transforms of its start's
    # gradient and its pg_ref (the penalty's ifft2 each), and after an
    # influence solve that took 0 iterations its evaluation reads the held
    # fit and start product: 1 transform outside the solve, the product's
    # inverse transform.  The state holds x_hat and the data gradient, so a
    # gradient at a new lambda costs the penalty's one transform.
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=74, outlier_seed=75)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(solver=SolverOptions(use_preconditioner=True))
    walk = _Walk(obj, opts, probe=rademacher_probe(obj.data.shape, opts.probe_seed))
    first = walk.visit(1e-3)
    assert first.newton_report.iterations > 0
    second = gcv_eval(obj, 1e-3, first.x, opts, _walk=walk)
    assert second.newton_report.iterations == second.influence_iterations == 0
    state, fit = walk.state, walk.fit
    assert second.x is first.x is state.x
    built = []

    def counted(name):
        real = getattr(gcv_module, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("_fit_at", "_hessian_data_half"):
        monkeypatch.setattr(gcv_module, name, counted(name))
    with count_transforms() as tally:
        third = walk.visit(1.0001e-3)
    newton = third.newton_report.counts
    assert third.newton_report.iterations == 0
    assert newton.fft2 + newton.ifft2 == 2
    assert tally.fft2 + tally.ifft2 - newton.fft2 - newton.ifft2 == 1
    assert built == []
    assert walk.state is state and walk.fit is fit and third.x is state.x

    obj_new = obj.with_lambda(2e-3)
    ws = operators_module.Workspace(obj.op.shape, obj.op.n_frames)
    with count_transforms() as tally:
        g = obj_new._add_penalty_gradient(state.g_data.copy(), state.data_ev.x_hat, ws)
    assert tally.fft2 + tally.ifft2 == 1
    assert g.tobytes() == obj_new.gradient(state.x).tobytes()


def test_trace_term_names_a_bad_solution():
    # A standalone trace_term checks x_lam, which its fit evaluates.
    inst = make_instance("satellite", (16, 16), noise_seed=73)
    obj = inst.objective(LossFunction(), 1e-3)
    probe = rademacher_probe(obj.data.shape, 0)
    x = default_start(inst.observed)
    x[0, 0] = np.nan
    with pytest.raises(ValueError, match="^x_lam contains non-finite values$"):
        trace_term(obj, x, probe)
    with pytest.raises(ValueError, match=r"^x_lam shape \(8, 8\)"):
        trace_term(obj, np.ones((8, 8)), probe)


@pytest.mark.parametrize("use_preconditioner", [False, True])
def test_weights_are_checked_once_per_step_and_once_per_fit(
        monkeypatch, use_preconditioner):
    # Each array of Hessian weights is checked where the package makes it:
    # a Newton step's D when the step reads it, a fit's W^2 when the fit is
    # built, never again by the Hessian solve that uses it.  With the
    # preconditioner on, its build checks each step's D a second time.
    checks, fits = [], []
    real_check, real_fit = operators_module._check_weights, gcv_module._fit_at

    def counted_check(*args, **kwargs):
        checks.append(None)
        return real_check(*args, **kwargs)

    def counted_fit(*args, **kwargs):
        fits.append(None)
        return real_fit(*args, **kwargs)

    for module in (operators_module, solver_module, gcv_module, precond_module):
        monkeypatch.setattr(module, "_check_weights", counted_check)
    monkeypatch.setattr(gcv_module, "_fit_at", counted_fit)
    per_step = 1 + use_preconditioner
    inst = make_instance("ash", (32, 32), outlier_fraction=0.05,
                         noise_seed=81, outlier_seed=82)
    solver = SolverOptions(use_preconditioner=use_preconditioner)

    _, report = projected_newton(inst.objective(LossFunction(), 1e-3),
                                 default_start(inst.observed), solver)
    assert report.termination == "converged" and report.iterations > 1
    assert len(checks) == per_step * report.iterations

    checks.clear()
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, solver=solver)
    _, evaluations = minimize_gcv(inst.objective(LossFunction(), 0.0), opts)
    reports = [ev.newton_report for ev in evaluations]
    assert {r.termination for r in reports} == {"converged"}
    steps = sum(r.iterations for r in reports)
    assert 1 <= len(fits) < len(evaluations)
    assert len(checks) == per_step * steps + len(fits)


def test_batch_layout_never_moves_a_gcv_search(monkeypatch):
    # The seed-1 64x64 search finds the same lambda* and points whether its
    # three frames run in one batch or one frame per batch.
    inst = make_instance("ash", (64, 64), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1,
                      solver=SolverOptions(use_preconditioner=True))
    searches = []
    for budget in (1, operators_module._BATCH_BYTES):
        monkeypatch.setattr(operators_module, "_BATCH_BYTES", budget)
        with count_transforms() as tally:
            lam_star, points = minimize_gcv(obj, opts, x0=default_start(inst.observed))
        searches.append((lam_star, tally.fft2 + tally.ifft2,
                         [(p.lam, p.gcv_value, p.x.tobytes()) for p in points]))
    assert searches[0] == searches[1]
    assert searches[0][1] == 1677
