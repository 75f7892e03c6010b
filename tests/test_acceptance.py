"""End-to-end acceptance gate: thirteen numbered criteria.

Each test checks one shipping requirement at its stated tolerance and
prints a single PASS/FAIL line (outside pytest's capture, so the
verdict is always visible).  The expensive 64x64 experiments share
module-level caches; every Newton run performed anywhere in this file
is recorded so the final criterion can audit solver contracts across
the whole suite.
"""

import numpy as np
import pytest

from robustdeblur.gcv import GcvOptions, minimize_gcv, rademacher_probe
from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import (
    BETA_95,
    LossFunction,
    Objective,
    chain_rule_weights,
    talwar_weights,
)
from robustdeblur.operators import BlurOperator, hessian_apply
from robustdeblur.precond import build_dhat, precond_build
from robustdeblur.solver import (
    SolverOptions,
    default_start,
    projected_newton,
    projected_pcg,
)
from robustdeblur.testbed import (
    GaussianPsfParams,
    gaussian_psf,
    make_instance,
    psf_center,
    relative_error,
)

from oracles import dense_blur_matrix

TALWAR = LossFunction()
STANDARD = LossFunction("talwar", beta=np.inf)
GRID = np.logspace(-5, -1, 12)

# every projected Newton run in this module lands here for criterion 13
RUNS = []
_INSTANCES = {}
_SCANS = {}
_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def check(num: int, ok: bool, detail: str) -> None:
    line = "criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def run_solver(label, obj, x0=None, opts=None):
    if x0 is None:
        x0 = default_start(obj.data)
    x, report = projected_newton(obj, x0, opts)
    RUNS.append((label, x, report))
    return x, report


def satellite(fraction: float, kind: str = "satellite"):
    key = (kind, fraction)
    if key not in _INSTANCES:
        _INSTANCES[key] = make_instance(
            kind, (64, 64), outlier_fraction=fraction,
            noise_seed=11, outlier_seed=12,
        )
    return _INSTANCES[key]


def scan(loss: LossFunction, fraction: float):
    """Relative error over GRID, warm-started in ascending order."""
    key = (loss.beta, fraction)
    if key not in _SCANS:
        inst = satellite(fraction)
        x = default_start(inst.observed)
        errors = []
        for lam in GRID:
            obj = inst.objective(loss, float(lam))
            x, _ = run_solver(
                "scan beta=%g f=%g lam=%.3e" % (loss.beta, fraction, lam),
                obj, x0=x,
            )
            errors.append(relative_error(x, inst.x_true))
        _SCANS[key] = errors
    return _SCANS[key]


def inlier_instance(seed: int):
    """Small instance whose scaled residuals stay inside the threshold."""
    rng = np.random.default_rng(seed)
    shape = (16, 16)
    params = GaussianPsfParams(
        rng.uniform(1.5, 3.5), rng.uniform(1.5, 3.5), 0.0
    )
    psf = gaussian_psf(params, shape)
    op = BlurOperator([psf], [psf_center(shape)])
    x_true = 20.0 + 40.0 * rng.random(shape)
    b = op.apply(x_true)[0] + 2.0 * rng.standard_normal(shape)
    obj = Objective(op, b[None], sigma=5.0, loss=TALWAR, lam=3e-3)
    x = x_true * (1.0 + 0.1 * rng.random(shape))
    margin = BETA_95 - np.max(np.abs(obj.scaled_residual(x)))
    assert margin > 0.5, "instance must keep clear of the saturation kink"
    return obj, x


def fd_gradient(obj, x):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        h = 1e-6 * (1.0 + abs(x[idx]))
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (obj.value(xp) - obj.value(xm)) / (2.0 * h)
    return g


def test_criterion_01_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(5):
        obj, x = inlier_instance(100 + seed)
        g = obj.gradient(x)
        g_fd = fd_gradient(obj, x)
        rel = np.linalg.norm(g_fd - g) / np.linalg.norm(g)
        worst = max(worst, rel)
    check(1, worst < 1e-5,
          "gradient vs central differences, worst rel err %.2e" % worst)


def test_criterion_02_hessian_vector_matches_directional_difference():
    worst = 0.0
    for seed in range(5):
        obj, x = inlier_instance(100 + seed)
        rng = np.random.default_rng(200 + seed)
        v = rng.standard_normal(x.shape)
        weights = obj.hessian_weights(x)
        hv = hessian_apply(obj.op, weights.d, obj.lam, v)
        h = 1e-6
        dg = (obj.gradient(x + h * v) - obj.gradient(x - h * v)) / (2.0 * h)
        rel = np.linalg.norm(dg - hv) / np.linalg.norm(hv)
        worst = max(worst, rel)
    check(2, worst < 1e-4,
          "Hessian product vs gradient difference, worst rel err %.2e"
          % worst)


def test_criterion_03_chain_rule_equals_closed_forms():
    rng = np.random.default_rng(300)
    n = 10_000
    ax = rng.uniform(0.5, 200.0, n)
    sigma = rng.uniform(0.5, 8.0, n)
    # residuals span both branches of the saturating loss
    b = ax + rng.uniform(-4.0, 4.0, n) * np.sqrt(ax + sigma**2)
    z_gen, d_gen = chain_rule_weights(TALWAR, ax, b, sigma)
    z_cf = np.empty(n)
    d_cf = np.empty(n)
    for i in range(n):
        z_cf[i], d_cf[i], _ = talwar_weights(ax[i], b[i], sigma[i],
                                             TALWAR.beta)
    gap = max(np.max(np.abs(z_gen - z_cf)), np.max(np.abs(d_gen - d_cf)))
    check(3, gap < 1e-12,
          "chain rule vs closed forms on %d triples, max gap %.2e"
          % (n, gap))


def test_criterion_04_only_talwar_keeps_the_diagonal_nonnegative():
    huber = LossFunction("huber")
    talwar_min = np.inf
    huber_min = np.inf
    for i in range(100):
        rng = np.random.default_rng(400 + i)
        ax = rng.uniform(5.0, 500.0, 256)
        sigma = float(rng.uniform(1.0, 5.0))
        t = rng.uniform(-6.0, 6.0, 256)
        b = ax - t * np.sqrt(ax + sigma**2)
        _, d_t = chain_rule_weights(TALWAR, ax, b, sigma)
        _, d_h = chain_rule_weights(huber, ax, b, sigma)
        talwar_min = min(talwar_min, float(d_t.min()))
        huber_min = min(huber_min, float(d_h.min()))
    check(4, talwar_min >= 0.0 and huber_min < 0.0,
          "min D over sweep: talwar %.2e (>= 0), huber %.2e (< 0)"
          % (talwar_min, huber_min))


def test_criterion_05_preconditioner_diagonal_equality():
    rng = np.random.default_rng(500)
    shape = (8, 8)
    psf = gaussian_psf(GaussianPsfParams(2.0, 1.2, 0.5), shape)
    center = psf_center(shape)
    op = BlurOperator([psf], [center])
    d = rng.uniform(0.5, 2.0, shape)  # bounded away from the floor
    dhat = build_dhat(op, d[None])
    A = dense_blur_matrix(psf, center)
    lhs = np.diag(A.T @ np.diag(d.ravel()) @ A)
    Dh = np.diag(dhat.ravel())
    rhs = np.diag(Dh @ A.T @ A @ Dh)
    gap = np.max(np.abs(lhs - rhs) / np.abs(lhs))
    check(5, gap < 1e-10, "diag(A^T D A) vs diag(Dh A^T A Dh), rel gap %.2e"
          % gap)


def test_criterion_06_preconditioner_exact_for_constant_weights():
    shape = (16, 16)
    psf = gaussian_psf(GaussianPsfParams(3.0, 2.0, 1.0), shape)
    op = BlurOperator([psf], [psf_center(shape)])
    weights = np.full((1,) + shape, 0.37)
    lam = 1e-2
    precond = precond_build(op, weights, lam)

    def hess(v):
        return hessian_apply(op, weights, lam, v)

    rng = np.random.default_rng(600)
    rhs = rng.standard_normal(shape)
    active = np.zeros(shape, dtype=bool)
    _, iters = projected_pcg(hess, rhs, active, precond=precond.solve,
                             tol=1e-10, maxit=10)
    check(6, iters <= 2,
          "constant-weight PCG hit rel residual 1e-10 in %d iterations"
          % iters)


def test_criterion_07_preconditioner_cuts_inner_iterations():
    inst = satellite(0.05, kind="ash")
    lam = 1e-3
    totals = {}
    for use in (False, True):
        opts = SolverOptions(pcg_tol=1e-1, use_preconditioner=use)
        obj = inst.objective(TALWAR, lam)
        _, report = run_solver("bench precond=%s" % use, obj, opts=opts)
        totals[use] = report.total_pcg_iterations
    ratio = totals[True] / totals[False]
    check(7, ratio < 0.7,
          "total inner iterations %d with vs %d without, ratio %.2f"
          % (totals[True], totals[False], ratio))


def test_criterion_08_operation_counts_match_the_budget():
    shape = (16, 16)
    psf = gaussian_psf(GaussianPsfParams(3.0, 2.0, 0.0), shape)
    op = BlurOperator([psf], [psf_center(shape)])
    rng = np.random.default_rng(800)
    weights = rng.random((1,) + shape)
    v = rng.standard_normal(shape)
    with count_transforms() as tally:
        hessian_apply(op, weights, 0.3, v)
    hess_counts = (tally.fft2, tally.ifft2, tally.mults, tally.adds)

    precond = precond_build(op, weights, 0.3)
    with count_transforms() as tally:
        precond.solve(v)
    solve_counts = (tally.fft2, tally.ifft2, tally.mults, tally.adds)

    ok = hess_counts == (2, 2, 4, 1) and solve_counts == (1, 1, 3, 0)
    check(8, ok,
          "Hessian apply %s (want 2,2,4,1); preconditioner solve %s "
          "(want 1,1,3,0)" % (hess_counts, solve_counts))


def test_criterion_09_robust_loss_shrugs_off_corruptions():
    errors0 = scan(TALWAR, 0.0)
    lam_star = float(GRID[int(np.argmin(errors0))])

    def err_at(loss, fraction):
        inst = satellite(fraction)
        obj = inst.objective(loss, lam_star)
        x, _ = run_solver(
            "trend beta=%g f=%g" % (loss.beta, fraction), obj
        )
        return relative_error(x, inst.x_true)

    robust0 = err_at(TALWAR, 0.0)
    robust10 = err_at(TALWAR, 0.1)
    standard0 = err_at(STANDARD, 0.0)
    standard10 = err_at(STANDARD, 0.1)
    ok = (
        robust10 < standard10
        and robust10 <= 1.15 * robust0
        and abs(robust0 - standard0) < 0.03 * standard0
    )
    check(9, ok,
          "at lam=%.2e: 10%% outliers robust %.3f < standard %.3f; "
          "robust drift %.1f%%; clean gap %.1f%%"
          % (lam_star, robust10, standard10,
             100 * (robust10 / robust0 - 1),
             100 * abs(robust0 - standard0) / standard0))


def test_criterion_10_corruptions_barely_move_the_robust_optimum():
    argmin = {
        (name, f): int(np.argmin(scan(loss, f)))
        for name, loss in (("talwar", TALWAR), ("standard", STANDARD))
        for f in (0.0, 0.1)
    }
    talwar_shift = abs(argmin[("talwar", 0.1)] - argmin[("talwar", 0.0)])
    standard_shift = abs(
        argmin[("standard", 0.1)] - argmin[("standard", 0.0)]
    )
    standard_min = min(scan(STANDARD, 0.1))
    talwar_min = min(scan(TALWAR, 0.1))
    standard_fails = (standard_shift > 1
                      or standard_min > 1.2 * talwar_min)
    check(10, talwar_shift <= 1 and standard_fails,
          "argmin shift over 12-point grid: talwar %d step(s), standard "
          "%d; min error at 10%%: standard %.3f vs talwar %.3f"
          % (talwar_shift, standard_shift, standard_min, talwar_min))


def test_criterion_11_gcv_lands_near_the_grid_optimum():
    inst = satellite(0.02)
    grid_best = min(scan(TALWAR, 0.02))
    obj = inst.objective(TALWAR, 0.0)
    opts = GcvOptions(lambda_lo=1e-6, lambda_hi=1e-1, x_tol=1e-4,
                      probe_seed=0)
    x0 = default_start(inst.observed)
    lam_star, evals = minimize_gcv(obj, opts, x0=x0)
    for e in evals:
        RUNS.append(("gcv lam=%.3e" % e.lam, e.x, e.newton_report))
    starred = next(e for e in evals if e.lam == lam_star)
    err = relative_error(starred.x, inst.x_true)

    lam_again, evals_again = minimize_gcv(obj, opts, x0=x0)
    deterministic = lam_again == lam_star and [
        e.gcv_value for e in evals_again
    ] == [e.gcv_value for e in evals]
    ok = err <= 1.25 * grid_best and deterministic
    check(11, ok,
          "err %.4f at lam_GCV=%.3e vs grid best %.4f (gate %.4f); "
          "deterministic=%s"
          % (err, lam_star, grid_best, 1.25 * grid_best, deterministic))


def test_criterion_12_trace_estimator_quality():
    rng = np.random.default_rng(1200)
    d = rng.standard_normal(4096)
    v = rademacher_probe((4096,), seed=9)
    diag_gap = abs(float(v @ (d * v)) - d.sum()) / abs(d.sum())

    B = rng.standard_normal((64, 64))
    M = B @ B.T
    true = float(np.trace(M))
    mean = np.mean(
        [float(v @ (M @ v))
         for v in (rademacher_probe((64,), seed=s) for s in range(200))]
    )
    sym_gap = abs(mean - true) / true
    check(12, diag_gap < 1e-12 and sym_gap < 0.05,
          "diagonal exactness gap %.1e; 200-probe mean off by %.1f%%"
          % (diag_gap, 100 * sym_gap))


def test_criterion_13_solver_contracts_hold_across_the_suite():
    # infeasible iterates cannot occur silently: the line search projects
    # every trial point and the objective itself rejects negative input,
    # so auditing traces and final iterates covers the whole run
    assert len(RUNS) >= 50
    bad = []
    for label, x, report in RUNS:
        trace = report.objective_trace
        if not all(b < a for a, b in zip(trace, trace[1:])):
            bad.append((label, "non-monotone objective"))
        if float(np.min(x)) < 0:
            bad.append((label, "infeasible final iterate"))
        if report.iterations > 40:
            bad.append((label, "more than 40 Newton steps"))
        if report.termination != "converged":
            bad.append((label, report.termination))
    check(13, not bad,
          "%d recorded runs: feasible, strictly decreasing, converged "
          "within 40 steps%s"
          % (len(RUNS), "" if not bad else "; violations: %s" % bad[:3]))
