"""Regularization parameter selection by robust generalized cross validation.

The selected lambda minimizes

    gcv(lam) = m * ||W r_lam||^2 / trace(I - A_lam)^2

where r_lam is the residual of the solution at lam, W is a reweighting
that caps each saturated residual's contribution at the loss threshold
(so outliers cannot steer the parameter choice), and A_lam is the
influence matrix mapping data to fitted data.  The trace is estimated
stochastically with a single Rademacher probe: for any matrix M,
E[v^T M v] = trace(M) when v has independent +-1 entries.  Applying
A_lam to the probe needs one linear solve, done by truncated projected
CG on the weighted normal equations restricted to the positive support
of the solution.  With ``GcvOptions.solver.use_preconditioner`` set,
that solve uses the same column-scaling preconditioner as the Newton
steps, built from the influence system's Hessian weights W^2; the
stopping rule (the plain projected residual relative to its start) is
the same either way.  An estimate is flagged unreliable when its solve
breaks down or stops at the iteration cap.

One probe is drawn per minimization and shared across every lambda, so
the scalar function handed to the optimizer is deterministic; redrawing
per evaluation would make the minimizer chase sampling noise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .objective import Objective, _scaled_terms
from .operators import Workspace, _check_weights, _hessian_kernel, _penalty_symbol
from .precond import precond_build
from .solver import (
    PcgBreakdownError,
    SolverOptions,
    SolverReport,
    projected_newton,
    projected_pcg,
)
from .testbed import default_start

__all__ = [
    "GcvOptions",
    "GcvEvaluation",
    "robust_weights",
    "rademacher_probe",
    "trace_term",
    "gcv_eval",
    "minimize_gcv",
    "bounded_minimize",
    "write_gcv_trace",
]


@dataclass(frozen=True)
class GcvOptions:
    """Search bracket and tolerances for the 1D minimization."""

    lambda_lo: float = 0.0
    lambda_hi: float = 1e-1
    x_tol: float = 1e-8
    inner_cg_tol: float = 1e-4
    inner_cg_maxit: int = 150
    probe_seed: int = 0
    max_evaluations: int = 100
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.lambda_lo < 0 or self.lambda_hi < self.lambda_lo:
            raise ValueError("bracket must satisfy 0 <= lambda_lo <= lambda_hi")
        if self.x_tol <= 0 or self.inner_cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.inner_cg_maxit < 1 or self.max_evaluations < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class GcvEvaluation:
    """One functional evaluation; ``gcv_value = m * numerator / trace^2``."""

    lam: float
    gcv_value: float
    numerator: float  # ||W r_lam||^2
    trace_estimate: float
    newton_report: SolverReport
    x: np.ndarray
    reliable: bool = True


def robust_weights(obj: Objective, x: np.ndarray) -> np.ndarray:
    """Reweighting W with saturated entries contributing beta^2 apiece.

    Inliers get the usual 1/sqrt([Ax] + sigma^2); on a saturated entry the
    weight becomes beta / ([Ax] - b), so |W_ii r_i| = beta exactly and
    ||W r||^2 = 2 sum rho(t) regardless of how wild the outliers are.
    """
    ax = obj.op.apply(x)
    return _weights_from_fit(obj, ax, ax - obj.data)


def _weights_from_fit(obj: Objective, ax: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`robust_weights` given the fit ``ax = A x`` and residual ``r = ax - b``."""
    beta = obj.loss.beta
    s, _, inlier = _scaled_terms(ax, obj.data, obj.sigma**2, beta)
    # |t| > beta >= 0 forces r != 0, so the outlier branch never divides by 0
    return np.where(inlier, 1.0 / np.sqrt(s), beta / np.where(inlier, 1.0, r))


def rademacher_probe(shape, seed: int) -> np.ndarray:
    """Seeded +-1 probe; E[v v^T] = I and v_i^2 = 1 exactly."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def trace_term(
    obj: Objective,
    x_lam: np.ndarray,
    lam: float,
    probe: np.ndarray,
    inner_cg_tol: float = 1e-4,
    inner_cg_maxit: int = 150,
    *,
    use_preconditioner: bool = False,
    _weights: np.ndarray | None = None,
):
    """Estimate trace(I - A_lam) as v^T v - v^T (W A y).

    ``y`` approximately solves the influence system restricted to the
    positive support of ``x_lam``:

        D (A^T W^2 A + lam L^T L) D y = D A^T W v,   D = diag(x_lam > 0),

    by truncated projected CG, stopped when the projected residual falls
    below ``inner_cg_tol`` relative to its start.  With
    ``use_preconditioner`` the CG is preconditioned by
    :func:`.precond.precond_build` with Hessian weights W^2 (an
    ill-conditioned symbol raises its ``ValueError``).  Returns
    ``(estimate, reliable)``; ``reliable`` goes false when CG hits
    non-positive curvature and only a partial solve is available, or when
    it uses all ``inner_cg_maxit`` iterations.  ``_weights`` passes
    ``robust_weights(obj, x_lam)`` when the caller already has it.
    """
    W = robust_weights(obj, x_lam) if _weights is None else _weights
    w2 = _check_weights(obj.op, W * W, lam)
    active = x_lam <= 0
    rhs = obj.op.apply_adjoint(W * probe)
    ws = Workspace(obj.op.shape, obj.op.n_frames)
    precond = None
    if use_preconditioner:
        pre = precond_build(obj.op, obj.lap_sq, w2, lam)
        precond = functools.partial(pre.solve, ws=ws)
    penalty = _penalty_symbol(obj.lap_sq, lam)
    hess = functools.partial(_hessian_kernel, obj.op, penalty, w2, ws)
    try:
        y, iterations = projected_pcg(
            hess, rhs, active, precond, tol=inner_cg_tol, maxit=inner_cg_maxit
        )
        reliable = iterations < inner_cg_maxit
    except PcgBreakdownError as err:
        warnings.warn(
            f"trace estimation CG broke down ({err}); value is unreliable",
            RuntimeWarning,
        )
        y = err.iterate
        reliable = False
    fitted = W * obj.op.apply(y)
    estimate = float(np.sum(probe * probe) - np.sum(probe * fitted))
    return estimate, reliable


def gcv_eval(
    obj: Objective,
    lam: float,
    warm_start: np.ndarray,
    opts: GcvOptions,
    probe: np.ndarray | None = None,
) -> GcvEvaluation:
    """Solve at ``lam`` and evaluate the functional there."""
    if probe is None:
        probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    obj_lam = obj.with_lambda(lam)
    x_lam, report = projected_newton(obj_lam, warm_start, opts.solver)
    ax = obj.op.apply(x_lam)
    r = ax - obj.data
    W = _weights_from_fit(obj_lam, ax, r)
    numerator = float(np.sum((W * r) ** 2))
    estimate, reliable = trace_term(
        obj_lam, x_lam, lam, probe, opts.inner_cg_tol, opts.inner_cg_maxit,
        use_preconditioner=opts.solver.use_preconditioner, _weights=W,
    )
    m = obj.n_residuals
    denom = estimate * estimate
    value = m * numerator / denom if denom > 0 else np.inf
    return GcvEvaluation(
        lam=float(lam),
        gcv_value=value,
        numerator=numerator,
        trace_estimate=estimate,
        newton_report=report,
        x=x_lam,
        reliable=reliable,
    )


def bounded_minimize(func, lo: float, hi: float, x_tol: float,
                     max_evaluations: int = 100) -> float:
    """Golden-section / parabolic scalar minimization on [lo, hi].

    Brent's bounded method (Forsythe, Malcolm and Moler, *Computer Methods
    for Mathematical Computations*, 1977), ported from SciPy's
    ``scipy.optimize.fminbound`` (``_minimize_scalar_bounded``,
    BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024
    SciPy Developers) without its display and result plumbing.  It
    evaluates ``func`` at the same points in the same order and returns
    the same point, so the package needs no SciPy at run time.  Stops
    when the bracket around the best point shrinks to about ``x_tol`` or
    after ``max_evaluations`` evaluations.  A collapsed bracket
    (``hi <= lo``) returns ``lo`` without evaluating.
    """
    if hi <= lo:
        return float(lo)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + x_tol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + x_tol / 3.0
        tol2 = 2.0 * tol1
        if num >= max_evaluations:
            break
    return float(xf)


def _sign_or_one(v: float) -> float:
    """``np.sign(v) + (v == 0)`` for a non-NaN float: -1 below zero, else 1."""
    return 1.0 if v >= 0 else -1.0


def minimize_gcv(obj: Objective, opts: GcvOptions | None = None, x0=None):
    """Pick lambda by minimizing the functional over the bracket.

    Returns ``(lambda_star, evaluations)`` with the evaluation trace in
    call order.  Each solve warm-starts from the previous evaluation's
    solution; the probe is drawn once from ``probe_seed``.  The whole
    trajectory is deterministic given (instance, options).
    """
    opts = opts or GcvOptions()
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    warm = default_start(obj.data) if x0 is None else np.array(x0, dtype=np.float64)
    evaluations: list[GcvEvaluation] = []
    cache: dict[float, GcvEvaluation] = {}

    def evaluate(lam: float) -> float:
        nonlocal warm
        lam = float(lam)
        hit = cache.get(lam)
        if hit is None:
            hit = gcv_eval(obj, lam, warm, opts, probe)
            warm = hit.x
            cache[lam] = hit
            evaluations.append(hit)
        return hit.gcv_value

    if opts.lambda_hi <= opts.lambda_lo:
        evaluate(opts.lambda_lo)
        return opts.lambda_lo, evaluations

    lambda_star = bounded_minimize(
        evaluate, opts.lambda_lo, opts.lambda_hi, opts.x_tol,
        opts.max_evaluations,
    )
    return lambda_star, evaluations


def write_gcv_trace(path, evaluations) -> None:
    """CSV trace of the minimization, one row per functional evaluation."""
    lines = ["# schema=gcv-trace v1", "lambda,gcv,numerator,trace_estimate"]
    for ev in evaluations:
        lines.append(
            f"{ev.lam:.12e},{ev.gcv_value:.12e},{ev.numerator:.12e},"
            f"{ev.trace_estimate:.12e}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
