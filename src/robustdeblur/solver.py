"""Projected Newton outer iteration with a projected PCG inner solver.

The constraint x >= 0 is handled with an active-set strategy: cells at
the bound (x <= 0) are frozen out of the Newton system, the remaining
subspace is solved inexactly by preconditioned conjugate gradients
restricted to that subspace, the frozen cells receive a rescaled steepest
descent component, and a projected backtracking line search enforces
strict objective decrease.  Convergence is declared when the projected
gradient norm drops below ``newton_tol`` relative to its starting value.

Only the Talwar loss is accepted: it is the one loss whose data-term
Hessian diagonal stays nonnegative at every iterate, so the inner systems
are positive semidefinite by construction.  ``beta = inf`` runs the same
machinery as plain weighted least squares.

Each point is evaluated once (:meth:`.Objective.evaluate`): the start,
and every line-search trial.  The accepted trial's evaluation supplies
the next step's gradient, Hessian weights and preconditioner input; the
weights are validated once per step, and PCG calls the unchecked Hessian
kernel.  With k frames a Newton step therefore costs, in transforms
(fft2 + ifft2):

- (k+1) per line-search trial, and (k+2) for the gradient of the
  accepted point, (k+1) when lam = 0;
- (2k+2) per PCG iteration;
- with the preconditioner, (k+1) for its build and 2 per solve.

Each solve allocates one :class:`.operators.Workspace` in
:func:`_newton_loop`; the Hessian kernel and the preconditioner solve of
every PCG iteration run in it, and :func:`projected_pcg` updates its own
iterate, residual, direction and products in place, so the inner loop
allocates no grid-sized array.  The workspace lives in the solve's frame
only, never on the objective, the operator or the preconditioner, which
therefore stay immutable and can be shared by concurrent solves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gridfft import OpCounts, as_image, count_transforms
from .objective import Objective
from .operators import Workspace, _check_weights, _hessian_kernel
from .precond import precond_build

__all__ = [
    "SolverOptions",
    "SolverReport",
    "LineSearchError",
    "LineSearchResult",
    "PcgBreakdownError",
    "projected_gradient_map",
    "projected_pcg",
    "linesearch",
    "projected_newton",
]


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-4
    newton_maxit: int = 40
    pcg_tol: float = 1e-1
    pcg_maxit: int = 100
    linesearch_max_halvings: int = 20
    use_preconditioner: bool = False

    def __post_init__(self):
        if self.newton_tol <= 0 or self.pcg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.newton_maxit < 1 or self.pcg_maxit < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.linesearch_max_halvings < 0:
            raise ValueError("linesearch_max_halvings must be nonnegative")


@dataclass
class SolverReport:
    """Per-run diagnostics: traces, inner iteration counts, transform tally."""

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    pg_norms: list = field(default_factory=list)
    pcg_iterations: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    counts: OpCounts = field(default_factory=OpCounts)
    termination: str = ""

    @property
    def total_pcg_iterations(self) -> int:
        return int(sum(self.pcg_iterations))


class LineSearchError(RuntimeError):
    """No step length achieved a strict objective decrease."""


class PcgBreakdownError(RuntimeError):
    """Non-positive curvature encountered; the system is not SPD.

    Carries the last iterate so callers that can tolerate a partial
    solve (flagged as unreliable) may still use it.
    """

    def __init__(self, message: str, iterate: np.ndarray, iterations: int):
        super().__init__(message)
        self.iterate = iterate
        self.iterations = iterations


@dataclass(frozen=True)
class LineSearchResult:
    x: np.ndarray
    value: float
    step: float


def projected_gradient_map(g: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Free components pass through; bound components keep only their
    negative part (the directions that could still decrease the objective
    without leaving the feasible set)."""
    g = np.asarray(g, dtype=np.float64)
    active = np.asarray(active, dtype=bool)
    if g.shape != active.shape:
        raise ValueError("gradient and active mask shapes differ")
    return np.where(active, np.minimum(g, 0.0), g)


def projected_pcg(
    hess,
    rhs: np.ndarray,
    active: np.ndarray,
    precond=None,
    tol: float = 1e-1,
    maxit: int = 100,
):
    """Conjugate gradients on the inactive subspace of ``hess s = rhs``.

    ``hess`` and ``precond`` are callables mapping images to images; both
    must be symmetric positive definite on the inactive subspace.  Every
    iterate, residual, and search direction is kept exactly zero on active
    cells.  Stops when the projected residual norm falls below ``tol``
    relative to its starting value, returning ``(s, iterations)``.

    The iterate, residual, direction, preconditioned residual and Hessian
    product live in five arrays allocated here and updated in place.  What
    ``hess`` and ``precond`` return is copied in at once, so they may
    return a buffer they reuse on the next call (or their argument).

    Raises :class:`PcgBreakdownError` on non-positive curvature.
    """
    rhs = as_image(rhs, "rhs")
    active = np.asarray(active, dtype=bool)

    def project_into(dst, v):
        np.copyto(dst, v)
        np.copyto(dst, 0.0, where=active)
        return dst

    def dot(u, v, scratch):
        return float(np.sum(np.multiply(u, v, out=scratch)))

    x = np.zeros_like(rhs)
    r = project_into(np.empty_like(rhs), rhs)
    r0_norm = np.linalg.norm(r)
    if r0_norm == 0.0:
        return x, 0
    z = project_into(np.empty_like(rhs), precond(r) if precond is not None else r)
    hp = np.empty_like(rhs)
    rz = dot(r, z, hp)
    if rz <= 0.0:
        raise PcgBreakdownError(
            f"preconditioned residual product {rz:.3e} is not positive", x, 0
        )
    p = z.copy()
    # z is free from here until it is recomputed, so it holds products.
    for k in range(1, maxit + 1):
        project_into(hp, hess(p))
        ph = dot(p, hp, z)
        if ph <= 0.0:
            raise PcgBreakdownError(
                f"curvature p^T H p = {ph:.3e} at iteration {k}", x, k - 1
            )
        alpha = rz / ph
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, hp, out=hp)
        if np.linalg.norm(r) <= tol * r0_norm:
            return x, k
        project_into(z, precond(r) if precond is not None else r)
        rz_next = dot(r, z, hp)
        if rz_next <= 0.0:
            raise PcgBreakdownError(
                f"preconditioned residual product {rz_next:.3e} at iteration {k}",
                x,
                k,
            )
        p *= rz_next / rz
        p += z
        rz = rz_next
    return x, maxit


def linesearch(
    obj: Objective,
    x: np.ndarray,
    s: np.ndarray,
    current_value: float | None = None,
    max_halvings: int = 20,
) -> LineSearchResult:
    """Projected backtracking: first alpha in 1, 1/2, 1/4, ... whose
    projected point max(x + alpha s, 0) strictly decreases the objective."""
    if current_value is None:
        current_value = obj.value(x)
    s = as_image(s, "s")
    if not np.any(s):
        raise LineSearchError("zero search direction")
    alpha = 1.0
    for _ in range(max_halvings + 1):
        cand = np.maximum(x + alpha * s, 0.0)
        val = obj.value(cand)
        if val < current_value:
            return LineSearchResult(x=cand, value=val, step=alpha)
        alpha *= 0.5
    raise LineSearchError(
        f"no objective decrease within {max_halvings} halvings"
    )


class _Trials:
    """Line-search stand-in for the objective that keeps the last evaluation."""

    def __init__(self, obj: Objective):
        self.obj = obj
        self.last = None

    def value(self, x) -> float:
        self.last = None  # release the previous trial first
        self.last = self.obj.evaluate(x)
        return self.last.value


def _evaluated_linesearch(obj, x, s, value, max_halvings):
    """:func:`linesearch` on ``obj``; returns its result and the accepted
    point's evaluation, which is the last one it made."""
    trials = _Trials(obj)
    return linesearch(trials, x, s, value, max_halvings), trials.last


def projected_newton(
    obj: Objective,
    x0: np.ndarray,
    opts: SolverOptions | None = None,
    callback=None,
):
    """Minimize the objective over x >= 0; returns ``(x, SolverReport)``.

    Per iteration: freeze the active set (x <= 0), solve the reduced
    Newton system inexactly with projected PCG from rhs = -gradient, give
    active cells a negative-gradient component rescaled to at most the
    magnitude of the Newton step, and line search.  ``callback`` receives
    ``(iteration, objective_value, projected_gradient_norm)`` after every
    accepted step.  A step whose Hessian weights are all zero (every
    residual saturated) is not taken: the run stops with termination
    ``all_saturated`` and returns the current iterate.
    """
    if obj.loss.kind != "talwar":
        raise ValueError(
            f"solver requires the talwar loss (got {obj.loss.kind!r}); other "
            "losses can produce indefinite Hessians"
        )
    opts = opts or SolverOptions()
    x = as_image(x0, "x0").copy()
    if np.any(x < 0):
        raise ValueError("x0 must be elementwise nonnegative")

    report = SolverReport()
    with count_transforms() as tally:
        x = _newton_loop(obj, x, opts, callback, report)
    report.counts = tally.copy()
    return x, report


def _newton_loop(obj, x, opts, callback, report):
    """Newton steps from ``x``, which is evaluated here.

    Each accepted iterate is evaluated once, by the line search; its
    evaluation then supplies the gradient, the Hessian weights and the
    preconditioner input of the next step.  Every evaluation lives only
    in this frame, so dropping the name releases it.  So does the solve's
    workspace, which every gradient, Hessian product and preconditioner
    solve below runs in.
    """
    ws = Workspace(obj.op.shape, obj.op.n_frames)
    ev = obj.evaluate(x)
    report.objective_trace.append(ev.value)
    g = obj.gradient_at(ev, ws)
    active = x <= 0
    pg0_norm = float(np.linalg.norm(projected_gradient_map(g, active)))
    report.pg_norms.append(pg0_norm)
    if callback is not None:
        callback(0, ev.value, pg0_norm)
    if pg0_norm == 0.0:
        report.termination = "converged"
        return x
    report.termination = "max_iterations"
    for k in range(1, opts.newton_maxit + 1):
        d = _check_weights(obj.op, ev.d, obj.lam)
        if not np.any(d > 0):
            report.termination = "all_saturated"
            break
        precond = None
        if opts.use_preconditioner:
            pre = precond_build(obj.op, obj.lap_sq, d, obj.lam)
            precond = functools.partial(pre.solve, ws=ws)
        hess = functools.partial(_hessian_kernel, obj.op, obj._penalty, d, ws)
        value = ev.value
        # Drop this step's evaluation now and its Hessian and preconditioner
        # after PCG, so the line search's evaluations do not add to them.
        ev = d = None
        try:
            s, inner = projected_pcg(
                hess, -g, active, precond, tol=opts.pcg_tol, maxit=opts.pcg_maxit
            )
        except PcgBreakdownError:
            report.termination = "pcg_breakdown"
            break
        pre = precond = hess = None
        report.pcg_iterations.append(inner)

        if np.any(active):
            g_active = np.where(active, g, 0.0)
            max_s = float(np.max(np.abs(s)))
            max_g = float(np.max(np.abs(g_active)))
            # cap the frozen-cell component at the Newton step's scale;
            # skip when the Newton step vanished (scaling would zero it)
            if max_g > max_s > 0.0:
                g_active *= max_s / max_g
            s = s - g_active

        try:
            ls, ev = _evaluated_linesearch(
                obj, x, s, value, opts.linesearch_max_halvings
            )
        except LineSearchError:
            report.termination = "linesearch_failure"
            break

        x = ls.x
        report.iterations = k
        report.objective_trace.append(ev.value)
        report.step_lengths.append(ls.step)
        g = obj.gradient_at(ev, ws)
        active = x <= 0
        pg_norm = float(np.linalg.norm(projected_gradient_map(g, active)))
        report.pg_norms.append(pg_norm)
        if callback is not None:
            callback(k, ev.value, pg_norm)
        if pg_norm <= opts.newton_tol * pg0_norm:
            report.termination = "converged"
            break
    return x
