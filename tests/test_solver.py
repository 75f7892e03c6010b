import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from robustdeblur import operators as operators_module
from robustdeblur import solver as solver_module
from robustdeblur.gcv import GcvOptions, _Walk
from robustdeblur.objective import BETA_95, LossFunction, Objective
from robustdeblur.operators import BlurOperator, Workspace
from robustdeblur.solver import (
    LineSearchError,
    PcgBreakdownError,
    SolverOptions,
    _binding_set,
    default_start,
    linesearch,
    projected_newton,
    projected_pcg,
)
from robustdeblur.testbed import make_instance as make_testbed_instance

from oracles import dense_blur_matrix, dense_laplacian


def identity_operator(shape):
    psf = np.zeros(shape)
    psf[0, 0] = 1.0
    return BlurOperator([psf], [(0, 0)])


def gaussian_like_psf(rng, shape, width=1.5):
    h, w = shape
    yy = np.arange(h) - h // 2
    xx = np.arange(w) - w // 2
    psf = np.exp(-0.5 * ((yy[:, None] / width) ** 2 + (xx[None, :] / width) ** 2))
    psf /= psf.sum()
    return psf


def make_instance(seed, shape=(8, 8), lam=0.2, noise=1.0, outliers=0,
                  amplitude=40.0, floor=10.0, sigma=2.0):
    rng = np.random.default_rng(seed)
    psf = gaussian_like_psf(rng, shape)
    center = (shape[0] // 2, shape[1] // 2)
    op = BlurOperator([psf], [center])
    x_true = floor + amplitude * rng.random(shape)
    b = op.apply(x_true)[0] + noise * rng.standard_normal(shape)
    if outliers:
        idx = rng.choice(b.size, size=outliers, replace=False)
        b.ravel()[idx] += rng.uniform(50, 200, size=outliers)
    obj = Objective(op, b[None], sigma, LossFunction(), lam)
    x0 = np.maximum(b, 0.0)
    return obj, x0, x_true, psf, center


# -- binding set --------------------------------------------------------


def test_binding_set_is_the_one_projection_of_step_and_stop_test():
    # The mask is the bound cells whose gradient pushes into the bound, and
    # ||P g|| (g with that mask zeroed) equals the stop-test norm that kept
    # only the negative part of g on every bound cell; exact and signed
    # zeros in x and g included.
    rng = np.random.default_rng(23)
    shape = (16, 12)
    x = rng.random(shape)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[rng.random(shape) < 0.2] = -0.0
    bound = x <= 0
    assert np.any(bound & np.signbit(x)) and np.any(bound & ~np.signbit(x))
    for cell in (g > 0, g < 0, (g == 0) & np.signbit(g), (g == 0) & ~np.signbit(g)):
        assert np.any(bound & cell) and np.any(~bound & cell)
    binding, pg_norm = _binding_set(x, g, np.empty(shape))
    assert binding.dtype == bool
    assert np.array_equal(binding, bound & (g > 0))
    assert pg_norm == np.linalg.norm(np.where(bound, np.minimum(g, 0.0), g))


# -- projected PCG ------------------------------------------------------


def test_pcg_identity_system_converges_in_one_iteration():
    rng = np.random.default_rng(100)
    rhs = rng.standard_normal((6, 6))
    s, iters = projected_pcg(lambda v: v, rhs, np.zeros((6, 6), bool))
    assert iters == 1
    assert np.allclose(s, rhs)


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": -1.0}, "tol must be nonnegative, got -1.0"),
    ({"tol": math.nan}, "tol must be finite, got nan"),
    ({"tol": None}, "tol float() argument must be a string or a real number, "
                    "not 'NoneType'"),
    ({"tol": "tight"}, "tol could not convert string to float: 'tight'"),
    ({"maxit": 2.5}, "maxit must be an integer, got 2.5"),
    ({"maxit": 0}, "maxit must be at least 1, got 0"),
])
def test_pcg_checks_its_scalars_where_they_enter(kwargs, message):
    # a negative or NaN tol used to end in a PcgBreakdownError reporting a
    # zero residual product, a text one in a bare TypeError
    calls = []
    hess = lambda v: calls.append(None) or v
    with pytest.raises(ValueError) as err:
        projected_pcg(hess, np.ones((4, 4)), np.zeros((4, 4), bool), **kwargs)
    assert str(err.value) == message
    assert calls == []


def test_pcg_checks_its_scalars_once_per_call(monkeypatch):
    rhs = np.random.default_rng(107).standard_normal((4, 4))
    diag = 1.0 + np.arange(16.0).reshape(4, 4)
    checked = []
    real = solver_module._arg
    monkeypatch.setattr(solver_module, "_arg",
                        lambda name, *a: checked.append(name) or real(name, *a))
    s, iters = projected_pcg(lambda v: diag * v, rhs, np.zeros((4, 4), bool),
                             tol="1e-8", maxit="50")
    assert iters > 1 and checked == ["tol", "maxit"]
    plain = projected_pcg(lambda v: diag * v, rhs, np.zeros((4, 4), bool),
                          tol=1e-8, maxit=50)[0]
    assert np.array_equal(s, plain)


def dense_spd_system(seed, n=36):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    H = B @ B.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    return H, rhs


def test_pcg_matches_direct_solve_within_conditioning_bound():
    H, rhs = dense_spd_system(101)
    shape = (6, 6)

    def hess(v):
        return (H @ v.ravel()).reshape(shape)

    tol = 1e-1
    s, _ = projected_pcg(hess, rhs.reshape(shape), np.zeros(shape, bool), tol=tol)
    exact = np.linalg.solve(H, rhs)
    kappa = np.linalg.cond(H)
    assert np.linalg.norm(s.ravel() - exact) <= tol * kappa * np.linalg.norm(exact)


def test_pcg_exact_after_n_iterations_at_zero_tolerance():
    H, rhs = dense_spd_system(102, n=16)
    shape = (4, 4)

    def hess(v):
        return (H @ v.ravel()).reshape(shape)

    s, iters = projected_pcg(
        hess, rhs.reshape(shape), np.zeros(shape, bool), tol=0.0, maxit=16
    )
    assert iters == 16
    assert np.linalg.norm(s.ravel() - np.linalg.solve(H, rhs)) < 1e-8


def test_pcg_iterates_vanish_exactly_on_active_cells():
    H, rhs = dense_spd_system(103)
    shape = (6, 6)
    rng = np.random.default_rng(104)
    active = rng.random(shape) < 0.3

    def hess(v):
        return (H @ v.ravel()).reshape(shape)

    s, _ = projected_pcg(hess, rhs.reshape(shape), active, tol=1e-8, maxit=100)
    assert np.all(s[active] == 0.0)
    # and the projected system is actually solved on the inactive part
    r = rhs.reshape(shape) - hess(s)
    assert np.linalg.norm(r[~active]) < 1e-6 * np.linalg.norm(rhs)


def test_pcg_zero_rhs_returns_immediately():
    s, iters = projected_pcg(lambda v: v, np.zeros((4, 4)), np.zeros((4, 4), bool))
    assert iters == 0 and np.all(s == 0)


def test_pcg_started_at_the_solution_takes_no_iteration():
    H, rhs = dense_spd_system(106, n=16)
    shape = (4, 4)
    exact = np.linalg.solve(H, rhs).reshape(shape)
    calls = []

    def hess(v):
        calls.append(1)
        return (H @ v.ravel()).reshape(shape)

    s, iters = projected_pcg(hess, rhs.reshape(shape), np.zeros(shape, bool),
                             x0=exact)
    assert iters == 0
    assert np.array_equal(s, exact)
    assert len(calls) == 1  # the start's residual only


def test_pcg_start_is_zeroed_on_active_cells():
    H, rhs = dense_spd_system(107)
    shape = (6, 6)
    rng = np.random.default_rng(108)
    active = rng.random(shape) < 0.3
    x0 = rng.standard_normal(shape)
    assert np.all(x0[active] != 0.0)

    def hess(v):
        return (H @ v.ravel()).reshape(shape)

    s, _ = projected_pcg(hess, rhs.reshape(shape), active, tol=1e-8, maxit=100,
                         x0=x0)
    assert np.all(s[active] == 0.0)
    r = rhs.reshape(shape) - hess(s)
    assert np.linalg.norm(r[~active]) < 1e-6 * np.linalg.norm(rhs)


def test_pcg_stop_test_is_relative_to_the_rhs_not_the_start():
    # A start whose residual is already below tol * ||P rhs|| returns at
    # once, although a test relative to its own residual would iterate.
    H, rhs = dense_spd_system(109, n=16)
    shape = (4, 4)
    tol = 1e-2
    exact = np.linalg.solve(H, rhs)
    rng = np.random.default_rng(110)
    e = rng.standard_normal(16)
    e *= 0.5 * tol * np.linalg.norm(rhs) / np.linalg.norm(H @ e)
    x0 = (exact + e).reshape(shape)
    r0 = np.linalg.norm(rhs - H @ x0.ravel())
    assert 0.25 * tol * np.linalg.norm(rhs) < r0 < tol * np.linalg.norm(rhs)

    def hess(v):
        return (H @ v.ravel()).reshape(shape)

    s, iters = projected_pcg(hess, rhs.reshape(shape), np.zeros(shape, bool),
                             tol=tol, x0=x0)
    assert iters == 0
    assert np.array_equal(s, x0)


def test_pcg_rejects_a_start_of_another_shape():
    with pytest.raises(ValueError, match="x0 shape"):
        projected_pcg(lambda v: v, np.ones((4, 4)), np.zeros((4, 4), bool),
                      x0=np.ones((1, 4)))


def test_pcg_names_an_active_set_of_another_shape():
    with pytest.raises(ValueError, match=r"^active shape \(3, 4\) differs "
                                         r"from rhs \(4, 4\)$"):
        projected_pcg(lambda v: v, np.ones((4, 4)), np.zeros((3, 4), bool))


def test_pcg_reports_breakdown_on_indefinite_system():
    rng = np.random.default_rng(105)
    rhs = rng.standard_normal((4, 4))
    with pytest.raises(PcgBreakdownError) as info:
        projected_pcg(lambda v: -v, rhs, np.zeros((4, 4), bool))
    assert info.value.iterations == 0
    assert info.value.iterate.shape == (4, 4)


def test_pcg_reports_breakdown_of_an_indefinite_preconditioner():
    # A preconditioner returning -r makes r^T z negative: at the start, and
    # after an iteration taken with a positive one.
    rng = np.random.default_rng(106)
    rhs = rng.standard_normal((4, 4))
    active = np.zeros((4, 4), bool)
    diag = 1.0 + rng.random((4, 4))
    with pytest.raises(PcgBreakdownError, match="residual product") as info:
        projected_pcg(lambda v: diag * v, rhs, active, precond=lambda r: -r)
    assert info.value.iterations == 0 and not np.any(info.value.iterate)

    calls = []

    def flips(r):
        calls.append(None)
        return r if len(calls) == 1 else -r

    with pytest.raises(PcgBreakdownError, match="at iteration 1") as info:
        projected_pcg(lambda v: diag * v, rhs, active, precond=flips, tol=0.0)
    # the iterate of the one step taken, alpha * rhs
    alpha = np.sum(rhs * rhs) / np.sum(rhs * diag * rhs)
    assert info.value.iterations == 1
    np.testing.assert_allclose(info.value.iterate, alpha * rhs, rtol=1e-12)


# -- line search --------------------------------------------------------


class QuadraticStub:
    """Minimal objective stand-in: J(x) = 0.5 ||x - target||^2."""

    def __init__(self, target):
        self.target = target

    def value(self, x):
        return 0.5 * float(np.sum((x - self.target) ** 2))


def test_linesearch_rejects_zero_direction():
    stub = QuadraticStub(np.zeros((3, 3)))
    with pytest.raises(LineSearchError):
        linesearch(stub, np.ones((3, 3)), np.zeros((3, 3)))


def test_linesearch_names_a_direction_of_another_shape():
    stub = QuadraticStub(np.zeros((3, 3)))
    for bad in (np.ones((2, 3)), np.ones((1, 3))):
        with pytest.raises(ValueError, match=r"^s shape \(\d, 3\) != grid \(3, 3\)$"):
            linesearch(stub, np.ones((3, 3)), bad)


def test_linesearch_accepts_full_newton_step_on_quadratic():
    target = np.full((3, 3), 2.0)
    stub = QuadraticStub(target)
    x = np.full((3, 3), 5.0)
    res = linesearch(stub, x, target - x)
    assert res.step == 1.0
    assert np.array_equal(res.x, target)
    assert res.value == 0.0


def test_linesearch_projects_overshoot_to_feasible_set():
    # descent toward a small target, overshooting far into negative values
    target = np.full((3, 3), 0.2)
    stub = QuadraticStub(target)
    x = np.full((3, 3), 5.0)
    res = linesearch(stub, x, np.full((3, 3), -50.0))
    assert np.all(res.x >= 0.0)
    assert res.value < stub.value(x)


def test_linesearch_error_after_exhausting_halvings():
    stub = QuadraticStub(np.zeros((2, 2)))
    x = np.zeros((2, 2))  # already optimal; any move increases J
    with pytest.raises(LineSearchError):
        linesearch(stub, x, np.ones((2, 2)))


# -- projected Newton ---------------------------------------------------


def test_newton_converges_instantly_at_perfect_fit():
    op = identity_operator((6, 6))
    b = np.full((6, 6), 9.0)
    obj = Objective(op, b[None], sigma=1.0, lam=0.0)
    x, report = projected_newton(obj, b)
    assert report.termination == "converged"
    assert report.iterations == 0
    assert np.array_equal(x, b)


def test_newton_restarted_at_optimum_stops_immediately():
    obj, x0, _, _, _ = make_instance(110)
    opts = SolverOptions(newton_tol=1e-6, pcg_tol=1e-2)
    x_star, first = projected_newton(obj, x0, opts)
    assert first.termination == "converged"
    # a restart at the computed optimum cannot make real progress: it stops
    # within a couple of iterations (linesearch decreases hit float
    # resolution) without moving the iterate
    x_again, report = projected_newton(obj, x_star, opts)
    assert report.iterations <= 3
    assert report.pg_norms[0] <= 1e-6 * first.pg_norms[0]
    assert np.linalg.norm(x_again - x_star) <= 1e-6 * np.linalg.norm(x_star)


def test_restart_at_optimum_converges_without_a_step():
    # The stop scale includes the projected gradient at the default start,
    # so a restart whose own start-relative test is out of reach (its
    # gradient is at noise level) stops at once instead of stepping down
    # to float resolution.
    opts = SolverOptions(newton_tol=1e-6, pcg_tol=1e-2)
    for seed in range(110, 124):
        obj, x0, _, _, _ = make_instance(seed)
        x_star, first = projected_newton(obj, x0, opts)
        x_again, report = projected_newton(obj, x_star, opts)
        assert report.termination == "converged", seed
        assert report.iterations <= 1, seed
        assert np.linalg.norm(x_again - x_star) <= 1e-6 * np.linalg.norm(x_star)


def test_report_pg_scale_is_the_norm_the_tolerance_used():
    obj, x0, _, _, _ = make_instance(110)
    opts = SolverOptions(newton_tol=1e-6, pcg_tol=1e-2)
    x_star, cold = projected_newton(obj, x0, opts)
    assert cold.pg_scale == cold.pg_norms[0]
    assert cold.pg_norms[-1] <= opts.newton_tol * cold.pg_scale

    warm_x, warm = projected_newton(obj, x_star, opts)
    assert warm.pg_scale > warm.pg_norms[0]
    # the reference is the default start, where the cold solve began
    assert warm.pg_scale == cold.pg_norms[0]
    # a start that meets the tolerance costs its own evaluation and
    # gradient plus the reference's: (k+1) + (k+2) transforms each
    k = obj.op.n_frames
    assert warm.iterations == 0 and np.array_equal(warm_x, x_star)
    assert warm.counts.fft2 + warm.counts.ifft2 == 2 * (2 * k + 3)


def test_newton_solves_32x32_instance_within_cap():
    obj, x0, x_true, _, _ = make_instance(111, shape=(32, 32), lam=0.05)
    x, report = projected_newton(obj, x0)
    assert report.termination == "converged"
    assert report.iterations <= 40
    assert np.all(x >= 0.0)
    trace = report.objective_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 0.5


def test_newton_with_outliers_stays_feasible_and_monotone():
    obj, x0, _, _, _ = make_instance(112, shape=(16, 16), lam=0.1, outliers=20)
    x, report = projected_newton(obj, x0)
    assert np.all(x >= 0.0)
    trace = report.objective_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert report.termination in ("converged", "max_iterations")
    assert len(report.pcg_iterations) >= report.iterations


def test_newton_matches_dense_damped_newton_oracle():
    obj, x0, _, psf, center = make_instance(113, shape=(6, 6), lam=0.5)
    opts = SolverOptions(newton_tol=1e-10, newton_maxit=200, pcg_tol=1e-8)
    x, report = projected_newton(obj, x0, opts)
    assert x.min() > 0  # interior solution: equivalence to unconstrained Newton
    x_oracle = dense_damped_newton(obj, psf, center, x0)
    assert np.linalg.norm(x - x_oracle) / np.linalg.norm(x_oracle) < 1e-6


def dense_damped_newton(obj, psf, center, x0):
    """Independent minimizer: dense matrices, explicit damping, no FFTs."""
    shape = x0.shape
    A = dense_blur_matrix(psf, center)
    L = dense_laplacian(shape)
    LTL = L.T @ L
    b = obj.data[0].ravel()
    sigma2 = obj.sigma**2
    beta = obj.loss.beta
    lam = obj.lam

    def value(x):
        ax = A @ x
        t = (ax - b) / np.sqrt(ax + sigma2)
        rho = np.where(np.abs(t) <= beta, 0.5 * t**2, 0.5 * beta**2)
        return rho.sum() + 0.5 * lam * x @ LTL @ x

    x = x0.ravel().copy()
    for _ in range(300):
        g, H = dense_gradient_and_hessian(obj, A, LTL, x)
        if np.linalg.norm(g) < 1e-12:
            break
        step = np.linalg.solve(H, -g)
        v0 = value(x)
        alpha = 1.0
        while value(x + alpha * step) >= v0 and alpha > 1e-12:
            alpha *= 0.5
        x = x + alpha * step
    return x.reshape(shape)


def dense_gradient_and_hessian(obj, A, LTL, x):
    """Gradient and Hessian of a one-frame objective at the flat ``x``,
    from the dense blur matrix ``A`` and ``LTL = L^T L``."""
    b = obj.data[0].ravel()
    sigma2 = obj.sigma**2
    ax = A @ x
    s = ax + sigma2
    inlier = np.abs((ax - b) / np.sqrt(s)) <= obj.loss.beta
    bs2 = (b + sigma2) ** 2
    z = np.where(inlier, 0.5 * (1 - bs2 / s**2), 0.0)
    d = np.where(inlier, bs2 / s**3, 0.0)
    g = A.T @ z + obj.lam * (LTL @ x)
    return g, A.T @ (d[:, None] * A) + obj.lam * LTL


def test_newton_step_holds_only_the_binding_cells_at_the_bound():
    # Bertsekas's projected Newton (SIAM J. Control Optim. 1982): a cell at
    # the bound stays out of the Newton system only when its gradient
    # pushes into the bound (g > 0); one with g <= 0 joins the system and
    # can leave the bound.  One step with a tight inner solve must land on
    # max(x0 + alpha s, 0), s the dense Newton step on the other cells.
    shape = (6, 6)
    rng = np.random.default_rng(121)
    psf = gaussian_like_psf(rng, shape, width=0.8)
    op = BlurOperator([psf], [(3, 3)])
    bright = np.arange(6) < 3
    x_true = np.where(bright, 40.0, 0.5)[None, :] * np.ones(shape)
    b = op.apply(x_true)[0] + 0.5 * rng.standard_normal(shape)
    obj = Objective(op, b[None], 2.0, LossFunction(), 1e-4)
    # zeroed cells in the bright half want to rise, in the dim half to fall
    x0 = np.where(bright, 30.0, 4.0)[None, :] * np.ones(shape)
    x0[1:5:2, 1] = x0[1:5:2, 4] = 0.0

    A = dense_blur_matrix(psf, (3, 3))
    L = dense_laplacian(shape)
    g, H = dense_gradient_and_hessian(obj, A, L.T @ L, x0.ravel())
    at_bound = x0.ravel() <= 0
    binding = at_bound & (g > 0)
    assert binding.sum() == 2 and (at_bound & (g < 0)).sum() == 2
    free = ~binding
    s = np.zeros(x0.size)
    s[free] = np.linalg.solve(H[np.ix_(free, free)], -g[free])

    x, report = projected_newton(
        obj, x0, SolverOptions(newton_maxit=1, pcg_tol=1e-12)
    )
    assert report.iterations == 1
    expected = np.maximum(x0.ravel() + report.step_lengths[0] * s, 0.0)
    assert np.max(expected.reshape(shape)[1:5:2, 1]) > 0  # left the bound
    assert np.allclose(x.ravel(), expected, rtol=1e-9, atol=1e-9)


def test_newton_preconditioned_run_agrees_with_plain_run():
    obj, x0, _, _, _ = make_instance(114, shape=(16, 16), lam=0.1)
    x_plain, rep_plain = projected_newton(obj, x0, SolverOptions())
    x_pre, rep_pre = projected_newton(
        obj, x0, SolverOptions(use_preconditioner=True)
    )
    assert rep_plain.termination == rep_pre.termination == "converged"
    # same stationary point up to the Newton tolerance
    scale = np.linalg.norm(x_plain)
    assert np.linalg.norm(x_plain - x_pre) / scale < 1e-2


def _start_transforms(report):
    """The transforms of a solve that no step accounts for."""
    return report.counts.fft2 + report.counts.ifft2 - sum(report.step_transforms)


def test_newton_records_transform_counts_per_accepted_step():
    # step_transforms has one entry per accepted step and accounts for all
    # of a run's transforms but its start: from default_start (pg_ref is
    # free there) that is one evaluation and one gradient, 2k+3 transforms
    # at lam > 0 and 2k+2 at lam = 0.  Without the preconditioner each
    # entry is its step's closed form: (k+1) per line-search trial, the new
    # point's gradient, and (2k+2) per PCG iteration.
    ends = set()
    for kind in ("satellite", "ash"):  # 1 frame and 3
        inst = make_testbed_instance(kind, (32, 32), outlier_fraction=0.05)
        k = inst.n_frames
        x0 = default_start(inst.observed)
        for lam, maxit, pre in itertools.product(
            (1e-3, 0.0), (1, 3, 40), (False, True)
        ):
            obj = inst.objective(LossFunction(), lam)
            opts = SolverOptions(newton_maxit=maxit, use_preconditioner=pre)
            _, report = projected_newton(obj, x0, opts)
            case = (kind, lam, maxit, pre)
            assert report.termination in ("converged", "max_iterations"), case
            ends.add(report.termination)
            assert report.iterations >= 1, case
            assert len(report.step_transforms) == report.iterations, case
            assert _start_transforms(report) == 2 * k + 2 + (lam > 0), case
            if not pre:
                trials = [1 + round(math.log2(1.0 / a)) for a in report.step_lengths]
                assert report.step_transforms == [
                    (k + 1) * t + (k + 1 + (lam > 0)) + (2 * k + 2) * pcg
                    for t, pcg in zip(trials, report.pcg_iterations)
                ], case
    assert ends == {"converged", "max_iterations"}


def test_newton_input_validation():
    obj, x0, _, _, _ = make_instance(116)
    with pytest.raises(ValueError, match="x0 must be elementwise nonnegative"):
        projected_newton(obj, -x0)
    with pytest.raises(ValueError, match="x0 contains non-finite values"):
        projected_newton(obj, np.where(x0 == x0.max(), np.nan, x0))
    with pytest.raises(ValueError, match="x0 shape"):
        projected_newton(obj, x0[:-1])
    # the Talwar-only rule is enforced where the objective is built
    with pytest.raises(ValueError, match="'huber'"):
        Objective(obj.op, obj.data, obj.sigma, LossFunction("huber"), obj.lam)
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(newton_maxit=0)


def test_newton_handles_zero_start_with_active_cells():
    # All-zero start with every cell active.  The data must stay small
    # relative to sigma: at x = 0 the residuals are -b/sigma, and if those
    # saturate, the objective is flat there and x = 0 is stationary.
    obj, _, _, _, _ = make_instance(
        117, shape=(8, 8), lam=0.1, amplitude=2.0, floor=0.0,
        sigma=5.0, noise=0.5,
    )
    x, report = projected_newton(obj, np.zeros((8, 8)))
    assert np.all(x >= 0.0)
    assert x.max() > 0  # moved off the bound
    assert report.objective_trace[-1] < report.objective_trace[0]


def test_newton_is_stationary_when_everything_saturates():
    # Large data at x = 0 puts every residual past the threshold: zero
    # weights, zero gradient, immediate convergence without movement.
    obj, _, _, _, _ = make_instance(118, shape=(8, 8), lam=0.0)
    x, report = projected_newton(obj, np.zeros((8, 8)))
    assert report.iterations == 0
    assert report.termination == "converged"
    assert np.all(x == 0.0)


def test_all_saturated_step_ends_as_named_termination():
    # Scaling the data by 1e6 drives every residual past the threshold
    # within a few steps; the step that finds all Hessian weights zero
    # must stop the run instead of handing them to the preconditioner.
    inst = make_testbed_instance("satellite", (64, 64))
    data = inst.observed * 1e6
    obj = Objective(inst.op, data, inst.sigma, LossFunction(), lam=0.1)
    for pre in (True, False):
        x, report = projected_newton(
            obj, default_start(data), SolverOptions(use_preconditioner=pre)
        )
        assert report.termination == "all_saturated", pre
        assert report.iterations >= 1
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
        assert not obj.hessian_weights(x).d.any()
        trace = report.objective_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_pcg_breakdown_ends_the_run_at_the_last_iterate(monkeypatch):
    # A step whose Hessian solve breaks down is not taken: the run ends as
    # pcg_breakdown at the iterate the steps before it reached.
    obj, x0, _, _, _ = make_instance(120)
    one_step, _ = projected_newton(obj, x0, SolverOptions(newton_maxit=1))
    solves = []
    real = solver_module._hessian_solve

    def second_breaks_down(*args, **kwargs):
        solves.append(None)
        if len(solves) == 2:
            raise PcgBreakdownError("curvature", np.zeros_like(x0), 3)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_hessian_solve", second_breaks_down)
    walk = _Walk(obj, GcvOptions())
    x, report = projected_newton(obj, x0, _walk=walk)
    assert report.termination == "pcg_breakdown"
    assert report.iterations == 1 and len(report.pcg_iterations) == 1
    assert len(report.objective_trace) == len(report.pg_norms) == 2
    assert np.array_equal(x, one_step)
    assert walk.state is None  # the run dropped the state it ended at


def test_ill_conditioned_preconditioner_falls_back_to_none():
    # At lam = 0 the ash kernels' symbol has a min/max ratio of about 6e-23,
    # which precond_build rejects; every step must solve its system without
    # the preconditioner and the run end in a named termination.
    inst = make_testbed_instance("ash", (32, 32), outlier_fraction=0.05)
    smallest = []

    class Feasible(Objective):
        def _data_evaluation(self, x, ws=None):
            smallest.append(float(np.min(x)))
            return super()._data_evaluation(x, ws)

    obj = Feasible(inst.op, inst.observed, inst.sigma, LossFunction(), 0.0)
    x, report = projected_newton(
        obj, default_start(inst.observed), SolverOptions(use_preconditioner=True)
    )
    assert report.termination in ("converged", "max_iterations",
                                  "linesearch_failure", "pcg_breakdown")
    assert report.iterations >= 1
    assert report.precond_fallbacks == len(report.pcg_iterations) >= 1
    assert min(smallest) >= 0.0 and np.all(x >= 0.0)
    trace = report.objective_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))

    # a symbol that can be inverted never falls back
    _, report = projected_newton(
        inst.objective(LossFunction(), 1e-3), default_start(inst.observed),
        SolverOptions(use_preconditioner=True),
    )
    assert report.precond_fallbacks == 0


@pytest.mark.parametrize("kind, side, steps, pcg, fallbacks", [
    ("satellite", 64, 40, 2647, 40),
    ("ash", 32, 40, 2419, 40),
])
def test_rejected_preconditioner_at_lambda_zero_costs_nothing(
        kind, side, steps, pcg, fallbacks):
    # At lam = 0 the symbol does not depend on the scaling, so a rejected
    # preconditioner must not build one: the run spends exactly what the
    # unpreconditioned run spends.
    inst = make_testbed_instance(kind, (side, side), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 0.0)
    runs = [
        projected_newton(obj, default_start(inst.observed),
                         SolverOptions(use_preconditioner=pre))[1]
        for pre in (False, True)
    ]
    for report, fell_back in zip(runs, (0, fallbacks)):
        assert report.iterations == steps
        assert report.total_pcg_iterations == pcg
        assert report.precond_fallbacks == fell_back
    assert runs[1].counts == runs[0].counts


def test_preconditioned_solve_at_huge_lambda_converges():
    # At lam = 1e6 the preconditioner, scaled by the Hessian weights, falls
    # far below the penalty-dominated Hessian, and its PCG runs to the cap;
    # each such step is solved again without it, and the run converges
    # instead of spending 40 steps at the cap.
    inst = make_testbed_instance("satellite", (64, 64), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e6)
    _, report = projected_newton(obj, default_start(inst.observed),
                                 SolverOptions(use_preconditioner=True))
    assert report.termination == "converged"
    assert report.iterations <= 6 and report.precond_fallbacks >= 1


def test_step_pcg_iterations_include_the_capped_attempt(monkeypatch):
    # A step whose preconditioned PCG reaches the cap is redone without the
    # preconditioner; its pcg_iterations entry holds both attempts, and the
    # redo counts as a fallback.
    inst = make_testbed_instance("satellite", (64, 64), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e6)
    attempts = []
    real = solver_module.projected_pcg

    def recorded(hess, rhs, active, precond=None, **kwargs):
        result = real(hess, rhs, active, precond, **kwargs)
        attempts.append((precond is not None, result[1]))
        return result

    monkeypatch.setattr(solver_module, "projected_pcg", recorded)
    opts = SolverOptions(use_preconditioner=True)
    _, report = projected_newton(obj, default_start(inst.observed), opts)
    steps, redone = [], 0
    pending = iter(attempts)
    for preconditioned, iterations in pending:
        assert preconditioned
        if iterations == opts.pcg_maxit:
            preconditioned, redo = next(pending)
            assert not preconditioned
            iterations += redo
            redone += 1
        steps.append(iterations)
    assert redone >= 1
    assert report.pcg_iterations == steps
    assert report.precond_fallbacks == redone


def test_solver_checks_hessian_weights_once_per_step():
    obj, x0, _, _, _ = make_instance(119)

    class NegativeWeights(Objective):
        def _data_evaluation(self, x, ws=None):
            ev = super()._data_evaluation(x, ws)
            return dataclasses.replace(ev, d=-ev.d)

    bad = NegativeWeights(obj.op, obj.data, obj.sigma, obj.loss, obj.lam)
    for pre in (False, True):
        with pytest.raises(ValueError, match="Hessian weights must be nonnegative"):
            projected_newton(bad, x0, SolverOptions(use_preconditioner=pre))


def test_solve_transform_budget_in_closed_form():
    # Each line-search trial and the start cost one evaluation (1 fft2 and
    # k ifft2); the start and each accepted point one gradient (k fft2, and
    # 1 ifft2 plus 1 for the penalty term); each PCG iteration one Hessian
    # product (k+1 each way); each preconditioner build k+1, each of its
    # solves 2.
    inst = make_testbed_instance("ash", (32, 32), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e-3)
    k = inst.n_frames
    for pre in (False, True):
        opts = SolverOptions(use_preconditioner=pre)
        _, report = projected_newton(obj, default_start(inst.observed), opts)
        assert report.termination == "converged"
        # a PCG that stops at its cap makes one more preconditioner solve
        assert max(report.pcg_iterations) < opts.pcg_maxit
        trials = sum(1 + round(math.log2(1.0 / a)) for a in report.step_lengths)
        steps = report.iterations
        pcg = report.total_pcg_iterations
        expected = (
            (k + 1) * (trials + 1)
            + (k + 2) * (steps + 1)
            + (2 * k + 2) * pcg
        )
        if pre:
            expected += (k + 1) * len(report.pcg_iterations) + 2 * pcg
        assert report.counts.fft2 + report.counts.ifft2 == expected, pre


def _step_transforms(report, k, lam):
    """Transforms of a solve's steps alone, without its start and pg_ref:
    (k+1) per line-search trial, the gradient of each accepted point, and
    (2k+2) per PCG iteration (no preconditioner)."""
    trials = sum(1 + round(math.log2(1.0 / a)) for a in report.step_lengths)
    gradient = k + 1 + (lam > 0)
    return (k + 1) * trials + gradient * report.iterations + (
        2 * k + 2
    ) * report.total_pcg_iterations


def test_held_state_rebuilds_a_warm_start_and_pg_ref_from_the_penalty_alone():
    # A walk whose solve at another lambda ended at x1 holds the data-term
    # parts of x1 and of the default start, whether that solve started
    # there or computed pg_ref from it.  A warm solve handed x1 reads both:
    # its start and pg_ref cost one penalty transform each at lam > 0 and
    # none at lam = 0, instead of an evaluation and a gradient each, and
    # its path is bitwise unchanged.
    inst = make_testbed_instance("ash", (32, 32), outlier_fraction=0.05)
    base = inst.objective(LossFunction(), 0.0)
    k = inst.n_frames
    x_ref = default_start(inst.observed)
    for x_fill, lam in itertools.product((x_ref, 1.1 * x_ref), (1e-3, 0.0)):
        walk = _Walk(base, GcvOptions())
        x1, _ = projected_newton(base.with_lambda(2e-3), x_fill, _walk=walk)
        obj = base.with_lambda(lam)
        # a few steps are enough; unregularized, the run would end at a
        # line-search failure, whose trials the closed form does not count
        opts = SolverOptions(newton_maxit=3)
        x_plain, plain = projected_newton(obj, x1, opts)
        x_held, held = projected_newton(obj, x1, opts, _walk=walk)
        assert np.array_equal(x_held, x_plain), lam
        assert held.objective_trace == plain.objective_trace, lam
        assert held.pg_norms == plain.pg_norms, lam
        assert held.pg_scale == plain.pg_scale > plain.pg_norms[0], lam
        assert plain.iterations >= 1, lam
        assert held.termination == plain.termination, lam
        assert plain.termination in ("converged", "max_iterations"), lam
        steps = _step_transforms(plain, k, lam)
        start = (k + 1) + (k + 1 + (lam > 0))
        assert plain.counts.fft2 + plain.counts.ifft2 == steps + 2 * start, lam
        assert held.counts.fft2 + held.counts.ifft2 == steps + 2 * (lam > 0)


def test_a_walk_reads_its_state_only_at_the_point_it_holds():
    # A walk's solve reads the held end state only when it is handed that
    # state's point itself.  A start equal to it but not it (a copy) is a
    # start the walk does not hold: it is evaluated afresh, and only pg_ref
    # is read from the walk.  Either way the solve is bitwise a standalone
    # one, which evaluates both.
    inst = make_testbed_instance("ash", (32, 32), outlier_fraction=0.05)
    base = inst.objective(LossFunction(), 0.0)
    obj = base.with_lambda(1e-3)
    per_point = 2 * inst.n_frames + 2  # an evaluation and a data gradient
    for held, saved in ((False, per_point), (True, 2 * per_point)):
        walk = _Walk(base, GcvOptions())
        x1, _ = projected_newton(base.with_lambda(2e-3),
                                 default_start(inst.observed), _walk=walk)
        x_plain, plain = projected_newton(obj, x1)
        x, report = projected_newton(obj, x1 if held else x1.copy(), _walk=walk)
        assert np.array_equal(x, x_plain)
        assert report.objective_trace == plain.objective_trace
        transforms = report.counts.fft2 + report.counts.ifft2
        assert transforms == plain.counts.fft2 + plain.counts.ifft2 - saved, held


def test_a_standalone_solve_holds_one_workspace_and_one_evaluation():
    # The working-set contract: at any moment a solve holds its workspace,
    # one evaluation, and either the PCG's five vectors (with the weights,
    # preconditioner and right-hand side) or the line search's point, step
    # and candidate; it keeps neither the default start nor what pg_ref
    # read there.
    inst = make_testbed_instance("ash", (64, 64), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e-3)
    opts = SolverOptions(use_preconditioner=True)
    x0 = default_start(inst.observed)
    projected_newton(obj, x0, opts)  # warm-up: numpy caches FFT plans on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x, report = projected_newton(obj, x0, opts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.termination == "converged" and report.iterations > 1
    assert obj.op.n_frames == 3
    image = x.nbytes
    ws = sum(b.nbytes for b in vars(Workspace(obj.op.shape, 3)).values())
    ev = obj.evaluate(x)
    evaluation = sum(getattr(ev, f).nbytes for f in ("x_hat", "ax", "z", "d",
                                                     "inlier_mask"))
    # workspace 2 + 2k images, evaluation 1 + 3k and its masks, and three
    # more images: 21.5 at k = 3 (a half spectrum is w//2+1 complex
    # columns); the bound leaves 2.5 images for an evaluation's temporaries
    contract = ws + evaluation + 3 * image
    assert contract / image == pytest.approx(21.5, abs=0.1)
    assert peak <= 24 * image, peak / image


def test_a_multi_frame_solve_holds_one_frame_batch_of_scratch():
    # From 128x128 on each frame is a batch of its own, so the workspace
    # holds 2 + 2 + 1 images at k = 3 (the extra half spectrum holds the
    # adjoint sum) instead of 2 + 2k, and the objective keeps no
    # (b + sigma^2)^2 stack: the solve's traced peak above its inputs is
    # three images below that of one 3-frame batch (22.51 images).
    inst = make_testbed_instance("ash", (128, 128), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e-3)
    opts = SolverOptions(use_preconditioner=True)
    x0 = default_start(inst.observed)
    assert len(Workspace(obj.op.shape, 3).stack) == 1
    projected_newton(obj, x0, opts)  # warm-up: numpy caches FFT plans on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x, report = projected_newton(obj, x0, opts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.termination == "converged" and obj.op.n_frames == 3
    assert peak <= 20.5 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("frames_per_batch", [1, 2])
def test_batch_layout_never_moves_a_solve(monkeypatch, frames_per_batch):
    # A 3-frame 128x128 solve with the preconditioner takes the same path
    # in frame batches of one, of two and one, and of all three frames.
    def solve(frames):
        monkeypatch.setattr(operators_module, "_BATCH_BYTES", frames * 128 * 65 * 16)
        inst = make_testbed_instance("ash", (128, 128), outlier_fraction=0.05)
        obj = inst.objective(LossFunction(), 1e-3)
        assert len(Workspace(obj.op.shape, 3).stack) == frames
        return projected_newton(obj, default_start(inst.observed),
                                SolverOptions(use_preconditioner=True))

    x, report = solve(frames_per_batch)
    x_whole, whole = solve(3)
    assert x.tobytes() == x_whole.tobytes()
    assert report.counts == whole.counts
    assert report.pcg_iterations == whole.pcg_iterations
    assert report.objective_trace == whole.objective_trace


def test_a_walk_holds_the_end_state_and_only_what_pg_ref_reads():
    # After a solve from the default start, the walk holds the end state,
    # the last iterate with its data evaluation (A x included) and data
    # gradient, and of the default start the point, derived once per walk,
    # and only the half spectrum and data gradient that pg_ref reads: no
    # A x, z or D stacks; and the workspace its solves run in.
    inst = make_testbed_instance("ash", (64, 64), outlier_fraction=0.05)
    obj = inst.objective(LossFunction(), 1e-3)
    opts = SolverOptions(use_preconditioner=True)
    x0 = default_start(inst.observed)
    tracemalloc.start()
    try:
        walk = _Walk(obj, GcvOptions(solver=opts))
        x, report = projected_newton(obj, x0, opts, _walk=walk)
        ev = obj._data_evaluation(x, Workspace(obj.op.shape, obj.op.n_frames))
        ws = sum(buffer.nbytes for buffer in vars(walk.ws).values())
        before = tracemalloc.get_traced_memory()[0]
        del walk
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.termination == "converged"
    image, spectrum = x.nbytes, ev.x_hat.nbytes
    last = image + spectrum + ev.ax.nbytes + ev.z.nbytes + ev.d.nbytes
    last += ev.inlier_mask.nbytes + image  # the mask, the data gradient
    assert freed <= last + image + spectrum + image + ws + 8 * 1024, freed


def test_concurrent_solves_each_count_only_their_own_operations():
    # The tally is per thread: two threads solving at once, switching every
    # 0.1 ms, must each report exactly the counts of a serial solve.
    inst = make_testbed_instance("ash", (64, 64), outlier_fraction=0.05,
                                 noise_seed=1, outlier_seed=2)
    obj = inst.objective(LossFunction(), 1e-3)
    x0 = default_start(inst.observed)
    _, serial = projected_newton(obj, x0)
    start = threading.Barrier(2)
    reports = [None, None]

    def solve(i):
        start.wait()
        reports[i] = projected_newton(obj, x0)[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert serial.counts.fft2 + serial.counts.ifft2 > 0
    assert serial.termination in ("converged", "max_iterations")
    for report in reports:
        assert report.counts == serial.counts
        assert report.objective_trace == serial.objective_trace
        assert report.step_transforms == serial.step_transforms
        assert _start_transforms(report) == 2 * inst.n_frames + 3
