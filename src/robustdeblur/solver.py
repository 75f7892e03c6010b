"""Projected Newton outer iteration with a projected PCG inner solver.

The constraint x >= 0 is handled with an active-set strategy: cells at
the bound (x <= 0) are frozen out of the Newton system, the remaining
subspace is solved inexactly by preconditioned conjugate gradients
restricted to that subspace, the frozen cells receive a rescaled steepest
descent component, and a projected backtracking line search enforces
strict objective decrease.

Convergence is declared when the projected gradient norm ``||P g||``
falls to ``newton_tol * max(||P g0||, pg_ref)``, where ``g0`` is the
gradient at the start and ``pg_ref`` the projected gradient norm at
:func:`default_start` of the data.  The test runs at the start too, so a
start that already meets it takes 0 steps.  A test relative to
``||P g0||`` alone is out of reach for a warm start near the optimum,
whose ``||P g0||`` is at noise level.

The solver needs no loss check: :class:`.Objective` accepts only the
Talwar loss, the one loss whose data-term Hessian diagonal stays
nonnegative at every iterate, so the inner systems are positive
semidefinite by construction.  ``beta = inf`` runs the same machinery as
plain weighted least squares.

Every solve runs one path.  Each point is evaluated once, as the data
term (:meth:`.Objective._data_evaluation`) with the penalty added (no
transform): the start, and every line-search trial.  The accepted trial's
evaluation supplies the next step's gradient, the data gradient ``A^T z``
plus the penalty gradient, and its Hessian weights and preconditioner
input.  One Hessian solve, :func:`_hessian_solve`, serves the Newton
steps and the GCV influence solves alike: it checks the weights once,
and PCG calls the unchecked Hessian kernel.  With k frames a Newton
step therefore costs, in transforms (fft2 + ifft2):

- (k+1) per line-search trial, and (k+2) for the gradient of the
  accepted point, (k+1) when lam = 0;
- (2k+2) per PCG iteration;
- with the preconditioner, (k+1) for its build and 2 per solve.

A preconditioner whose symbol is too ill-conditioned to invert is not
used: that step's system is solved without one, and
``SolverReport.precond_fallbacks`` counts it.

The start and ``pg_ref`` come from a :class:`_SearchMemo`, which keeps
the lambda-free parts of two points: the data evaluation and data
gradient of the last solve's final iterate, and the half spectrum and
data gradient of :func:`default_start`.  A standalone solve gets a fresh
memo, so its start costs one evaluation and one gradient, and ``pg_ref``
as much again unless the start is :func:`default_start`, where it is
``||P g0||`` itself.  A search over lambda (:func:`.gcv.minimize_gcv`,
:func:`.testbed.lambda_scan`) solves the same data term at many lambdas,
and only the penalty term depends on lambda, so it passes every solve
one memo.  A warm solve that starts where the previous one ended then
rebuilds its start's value and gradient from the memo, and ``pg_ref``
likewise: 1 transform each (the penalty's ifft2) when lam > 0 and none
at lam = 0, instead of 2k+3 each.  The values are bitwise those of a
fresh evaluation, so the path is the same with any memo.

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
from .operators import Workspace, _check_weights, _frozen, _hessian_kernel
from .precond import _IllConditionedSymbol, precond_build

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
    "default_start",
]


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and caps of :func:`projected_newton`.

    ``newton_tol``: stop once the projected gradient norm is at most
    ``newton_tol * max(||P g0||, pg_ref)``, with ``||P g0||`` its value at
    the start and ``pg_ref`` its value at :func:`default_start` of the
    data; checked at the start and after every step.
    """

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
    """Per-run diagnostics: traces, inner iteration counts, transform tally.

    ``pg_scale`` is the norm the Newton tolerance was applied to,
    ``max(pg_norms[0], pg_ref)``; it equals ``pg_norms[0]`` for a solve
    started at :func:`default_start`.  ``precond_fallbacks`` counts the
    steps whose preconditioner symbol was too ill-conditioned to invert,
    so that their system was solved without it.  ``counts`` holds the
    operations issued by the thread that ran the solve.
    """

    iterations: int = 0
    objective_trace: list = field(default_factory=list)
    pg_norms: list = field(default_factory=list)
    pg_scale: float = 0.0
    pcg_iterations: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    counts: OpCounts = field(default_factory=OpCounts)
    termination: str = ""
    precond_fallbacks: int = 0

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


def default_start(observed) -> np.ndarray:
    """Feasible starting guess: the frame-averaged data, clipped at zero."""
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim == 2:
        observed = observed[None]
    return np.maximum(observed.mean(axis=0), 0.0)


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
    x0: np.ndarray | None = None,
    *,
    _start_hess=None,
    _residual=False,
):
    """Conjugate gradients on the inactive subspace of ``hess s = rhs``.

    ``hess`` and ``precond`` are callables mapping images to images; both
    must be symmetric positive definite on the inactive subspace.  Every
    iterate, residual, and search direction is kept exactly zero on active
    cells.  Stops when the projected residual norm ``||P r||`` is at most
    ``tol * ||P rhs||``, returning ``(s, iterations)``.

    ``x0`` is the initial iterate (zero when ``None``), zeroed on active
    cells.  The stop reference ``||P rhs||`` is the residual of the zero
    start whatever ``x0`` is, so a good start saves iterations without
    tightening the test; a start that already meets it returns after 0
    iterations.  A nonzero start costs one ``hess`` call for its residual,
    which is not counted as an iteration; ``_start_hess``, when given, is
    called for that one product instead, on the start zeroed on active
    cells, and must return what ``hess`` would (the GCV influence solve
    serves it from a product it keeps).  A zero ``P rhs`` returns zeros.
    With ``_residual`` set, returns ``(s, iterations, r)``, ``r`` the
    projected residual ``P (rhs - hess s)`` as the iteration holds it (no
    ``hess`` call); the GCV influence solve reads its quadratic form from
    it.

    The iterate, residual, direction, preconditioned residual and Hessian
    product live in five arrays allocated here and updated in place.  What
    ``hess`` and ``precond`` return is copied in at once, so they may
    return a buffer they reuse on the next call (or their argument).

    Raises :class:`PcgBreakdownError` on non-positive curvature.
    """
    rhs = as_image(rhs, "rhs")
    active = np.asarray(active, dtype=bool)
    if x0 is not None:
        x0 = as_image(x0, "x0")
        if x0.shape != rhs.shape:
            raise ValueError(f"x0 shape {x0.shape} differs from rhs {rhs.shape}")

    def project_into(dst, v):
        np.copyto(dst, v)
        np.copyto(dst, 0.0, where=active)
        return dst

    def dot(u, v, scratch):
        return float(np.sum(np.multiply(u, v, out=scratch)))

    x = np.zeros_like(rhs)
    r = project_into(np.empty_like(rhs), rhs)

    def result(iterations):
        return (x, iterations, r) if _residual else (x, iterations)

    rhs_norm = np.linalg.norm(r)
    if rhs_norm == 0.0:
        return result(0)
    stop = tol * rhs_norm
    hp = np.empty_like(rhs)
    if x0 is not None:
        project_into(x, x0)
        if np.any(x):  # a zero start is the cold start, at no extra cost
            r -= project_into(hp, (_start_hess or hess)(x))
            if np.linalg.norm(r) <= stop:
                return result(0)
    z = project_into(np.empty_like(rhs), precond(r) if precond is not None else r)
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
        if np.linalg.norm(r) <= stop:
            return result(k)
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
    return result(maxit)


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


def _hessian_solve(obj, weights, rhs, active, use_preconditioner, tol, maxit,
                   ws=None, x0=None, dhat=None, start_hess=None,
                   residual=False):
    """:func:`projected_pcg` on ``(A^T W A + lam L^T L) s = rhs``, with the
    operator and ``lam`` of ``obj`` and ``W = diag(weights)``, run in ``ws``
    (a fresh one when None): the one Hessian solve, of Newton and GCV.

    ``dhat`` is :func:`.precond.build_dhat` of ``weights`` when the caller
    already has it, and ``start_hess`` serves the product of the start
    ``x0`` (:func:`projected_pcg`'s ``_start_hess``) when the caller can
    form it more cheaply than the kernel.  A preconditioner whose symbol is
    too ill-conditioned to invert is not used: the system is solved
    without one.  Returns ``(s, iterations, fell_back)``, ``fell_back``
    true in that case; with ``residual`` set, ``(s, iterations, fell_back,
    r)``, ``r`` the projected residual the solve ended with
    (:func:`projected_pcg`'s ``_residual``).
    """
    weights = _check_weights(obj.op, weights, obj.lam)
    ws = Workspace(obj.op.shape, obj.op.n_frames) if ws is None else ws
    precond, fell_back = None, False
    if use_preconditioner:
        try:
            pre = precond_build(obj.op, weights, obj.lam, dhat=dhat)
            precond = functools.partial(pre.solve, ws=ws)
        except _IllConditionedSymbol:
            fell_back = True
    hess = functools.partial(_hessian_kernel, obj.op, obj._penalty, weights, ws)
    s, iterations, *r = projected_pcg(hess, rhs, active, precond, tol=tol,
                                      maxit=maxit, x0=x0, _start_hess=start_hess,
                                      _residual=residual)
    return (s, iterations, fell_back, *r)


class _Trials:
    """Line-search stand-in for the objective that keeps the last evaluation
    and its data-term evaluation, which shares its arrays."""

    def __init__(self, obj: Objective):
        self.obj = obj
        self.last = self.data = None

    def value(self, x) -> float:
        self.last = self.data = None  # release the previous trial first
        self.data = self.obj._data_evaluation(x)
        self.last = self.obj._penalized(self.data)
        return self.last.value


class _SearchMemo:
    """The lambda-free parts of two evaluated points, kept across the solves
    that share it (see the module docstring).  Its entries:

    - the last iterate of the latest solve: the point, its
      :meth:`.Objective._data_evaluation` and its data gradient ``A^T z``;
    - :func:`default_start` of the data: its half spectrum and data
      gradient only, which is all ``pg_ref`` reads.

    Entries serve only an objective with the data term of the one that
    filled them (:meth:`.Objective._same_data_term`); any other objective
    empties the memo first.  Each solve gets one: its own, or that of a
    search over lambda, whose caller passes the same memo to every solve.
    Never shared between concurrent solves.
    """

    def __init__(self):
        self._obj = None
        self._last = None  # (x, data evaluation, data gradient)
        self._ref = None  # (x_hat, data gradient) at default_start

    def start(self, obj: Objective, x: np.ndarray, ws: Workspace):
        """``(data evaluation, data gradient)`` at a solve's start ``x``: the
        last entry's when ``x`` is its point, else computed here; at
        :func:`default_start`, their reference parts are kept."""
        if self._obj is None or not self._obj._same_data_term(obj):
            self._obj, self._last, self._ref = obj, None, None
        if self._last is not None and np.array_equal(x, self._last[0]):
            return self._last[1:]
        data_ev = obj._data_evaluation(x)
        g_data = _frozen(obj._data_gradient(data_ev, ws))
        if np.array_equal(x, default_start(obj.data)):
            self._ref = (data_ev.x_hat, g_data)
        return data_ev, g_data

    def pg_ref(self, obj: Objective, x: np.ndarray, pg_norm: float, ws: Workspace):
        """The projected gradient norm at :func:`default_start` of the data;
        ``pg_norm``, the norm at the start ``x``, when ``x`` is that point.
        Called after :meth:`start`, with the same objective."""
        x_ref = default_start(obj.data)
        if np.array_equal(x, x_ref):
            return pg_norm
        if self._ref is None:
            data_ev = obj._data_evaluation(x_ref)
            self._ref = (data_ev.x_hat, _frozen(obj._data_gradient(data_ev, ws)))
        x_hat, g_data = self._ref
        g = obj._add_penalty_gradient(g_data.copy(), x_hat, ws)
        return float(np.linalg.norm(projected_gradient_map(g, x_ref <= 0)))

    def remember(self, x: np.ndarray, data_ev, g_data) -> None:
        """Keep the last iterate of a solve of the objective last seen by
        :meth:`start`."""
        self._last = (_frozen(x.copy()), data_ev, g_data)


def projected_newton(
    obj: Objective,
    x0: np.ndarray,
    opts: SolverOptions | None = None,
    callback=None,
    *,
    _memo: _SearchMemo | None = None,
):
    """Minimize the objective over x >= 0; returns ``(x, SolverReport)``.

    Per iteration: freeze the active set (x <= 0), solve the reduced
    Newton system inexactly with projected PCG from rhs = -gradient, give
    active cells a negative-gradient component rescaled to at most the
    magnitude of the Newton step, and line search.  ``callback`` receives
    ``(iteration, objective_value, projected_gradient_norm)`` at the start,
    as iteration 0, and after every accepted step.  The run ends as
    ``converged`` once the projected gradient norm is at most
    ``opts.newton_tol * report.pg_scale``, where
    ``pg_scale = max(||P g0||, pg_ref)`` takes the larger of its value at
    ``x0`` and at :func:`default_start` of the data; a start that already
    meets this takes 0 steps.  A step whose Hessian weights are all zero
    (every residual saturated) is not taken: the run stops with
    termination ``all_saturated`` and returns the current iterate.

    ``_memo`` is the :class:`_SearchMemo` the start and ``pg_ref`` are read
    from, and the last iterate is left in; a fresh one when None.  A
    caller that solves the same data at many lambdas passes one memo to
    every solve.  The result is bitwise the same with any memo.
    """
    opts = opts or SolverOptions()
    x = as_image(x0, "x0").copy()
    if np.any(x < 0):
        raise ValueError("x0 must be elementwise nonnegative")
    memo = _SearchMemo() if _memo is None else _memo

    report = SolverReport()
    with count_transforms() as tally:
        x, data_ev, g_data = _newton_loop(obj, x, opts, callback, report, memo)
        if g_data is not None:
            memo.remember(x, data_ev, g_data)
    report.counts = tally.copy()
    return x, report


def _newton_loop(obj, x, opts, callback, report, memo):
    """Newton steps from ``x``, whose evaluation and ``pg_ref`` are read
    from ``memo``; returns the last iterate and its data-term evaluation
    and data gradient, both None when the run dropped them before it
    ended.

    Pass ``k`` records point ``k``, the start at 0 and the iterate of the
    ``k``-th accepted step after it, then takes the next step unless the
    run ends there.  Each accepted iterate is evaluated once, by the line
    search; its evaluation then supplies the gradient, the Hessian weights
    and the preconditioner input of the next step.  The data gradient is
    kept apart, for the memo, and the penalty added to a copy.  Every
    evaluation lives only in this frame, so dropping the name releases
    it.  So does the solve's workspace, which every gradient, Hessian
    product and preconditioner solve below runs in.
    """
    ws = Workspace(obj.op.shape, obj.op.n_frames)
    data_ev, g_data = memo.start(obj, x, ws)
    ev = obj._penalized(data_ev)
    report.termination = "max_iterations"
    for k in range(opts.newton_maxit + 1):
        g = obj._add_penalty_gradient(g_data.copy(), ev.x_hat, ws)
        report.objective_trace.append(ev.value)
        active = x <= 0
        pg_norm = float(np.linalg.norm(projected_gradient_map(g, active)))
        report.pg_norms.append(pg_norm)
        if k == 0:
            report.pg_scale = max(pg_norm, memo.pg_ref(obj, x, pg_norm, ws))
            tol = opts.newton_tol * report.pg_scale
        if callback is not None:
            callback(k, ev.value, pg_norm)
        if pg_norm <= tol:
            report.termination = "converged"
            break
        if k == opts.newton_maxit:
            break
        d = ev.d  # nonnegative (_hessian_solve checks): all zero if all saturated
        if not np.any(d):
            report.termination = "all_saturated"
            break
        value = ev.value
        # Drop this point's evaluation before the preconditioner build, and
        # its weights and gradient once the direction is formed, so the
        # build and the line search, where a solve's memory peaks, run
        # beside as few arrays as possible.
        ev = data_ev = g_data = None
        try:
            s, inner, fell_back = _hessian_solve(
                obj, d, -g, active, opts.use_preconditioner, opts.pcg_tol,
                opts.pcg_maxit, ws,
            )
        except PcgBreakdownError:
            report.termination = "pcg_breakdown"
            break
        d = None
        report.pcg_iterations.append(inner)
        report.precond_fallbacks += fell_back

        if np.any(active):
            g_active = np.where(active, g, 0.0)
            max_s = float(np.max(np.abs(s)))
            max_g = float(np.max(np.abs(g_active)))
            # cap the frozen-cell component at the Newton step's scale;
            # skip when the Newton step vanished (scaling would zero it)
            if max_g > max_s > 0.0:
                g_active *= max_s / max_g
            s = s - g_active
        g = g_active = None

        trials = _Trials(obj)
        try:
            ls = linesearch(trials, x, s, value, opts.linesearch_max_halvings)
        except LineSearchError:
            report.termination = "linesearch_failure"
            break
        ev, data_ev = trials.last, trials.data
        trials = None
        x = ls.x
        report.iterations = k + 1
        report.step_lengths.append(ls.step)
        g_data = _frozen(obj._data_gradient(data_ev, ws))
    return x, data_ev, g_data
