"""Projected Newton outer iteration with a projected PCG inner solver.

The constraint x >= 0 is handled with the binding set of Bertsekas's
projected Newton method ("Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20, 1982):
cells at the bound whose gradient pushes into it (x <= 0 and g > 0) are
held out of the Newton system, the system on every other cell, bound
cells with g <= 0 included, is solved inexactly by preconditioned
conjugate gradients restricted to that subspace, and a projected
backtracking line search over max(x + alpha s, 0) enforces strict
objective decrease.

One projection serves the step and its stop test: ``P g`` is ``g`` with
the binding set zeroed (:func:`_binding_set`), so ``g`` on the free cells
and its negative part on the bound ones.  Convergence is declared when
the projected gradient norm ``||P g||`` falls to
``newton_tol * max(||P g0||, pg_ref)``, where ``g0`` is the gradient at
the start and ``pg_ref`` the projected gradient norm at
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
transform): the start, and every line-search trial.  An evaluation holds
the value, ``x_hat``, ``A x`` and the inlier mask, all a trial needs.
The start and the accepted trial then take one gradient pass
(:meth:`.Objective._data_gradient`), which forms z and the Hessian
weights D from that evaluation and gives the data gradient ``A^T z`` and
D; the next step adds the penalty gradient and reads D, for its Hessian
and its preconditioner.  One Hessian solve, :func:`_hessian_solve`,
serves the Newton steps and the GCV influence solves alike: its callers
check the weights once, where they make them, and PCG calls the
unchecked Hessian kernel.
With k frames a Newton step therefore costs, in transforms (fft2 +
ifft2):

- (k+1) per line-search trial, and (k+2) for the gradient of the
  accepted point, (k+1) when lam = 0;
- (2k+2) per PCG iteration;
- with the preconditioner, (k+1) for its build and 2 per solve.

A step's system is solved without the preconditioner when its symbol is
too ill-conditioned to invert, or when the preconditioned PCG runs to
``pcg_maxit`` (it is then redone without one);
``SolverReport.precond_fallbacks`` counts both.

A solve hands its end state to the next one: the :class:`_State` of its
last iterate, that point with its data evaluation, data gradient
``A^T z`` and D, which depend on the data term alone.  A standalone solve
evaluates its start, for one evaluation and one gradient, and ``pg_ref``
as much again unless the start is :func:`default_start`, where it is
``||P g0||`` itself.  A search over lambda (:func:`.gcv.minimize_gcv`,
:func:`.testbed.lambda_scan`) solves the same data term at many lambdas,
and only the penalty term depends on lambda.  Its walk
(:class:`.gcv._Walk`) holds the last solve's end state, and the half
spectrum and data gradient of :func:`default_start`.  A warm solve
starts from the state it is handed and reads ``pg_ref`` from the held
parts: 1 transform each (the penalty's ifft2) when lam > 0 and none at
lam = 0, instead of 2k+3 each.  The values are bitwise those of a fresh
evaluation, so the path is the same either way.

Each solve runs in one :class:`.operators.Workspace`, its own or its
walk's.  Each evaluation's and gradient pass's scratch, the
preconditioner build's per-frame spectra, and the Hessian kernel and the
preconditioner solve of every PCG iteration run in it, and
:func:`projected_pcg` updates its own iterate, residual, direction and
products in place and forms its dot products in the workspace's image,
so the inner loop allocates no grid-sized array.  The workspace lives
in the solve's or the walk's frame only, never on the objective, the
operator or the preconditioner, so concurrent solves may share those
immutable objects.

A standalone solve keeps a working set of fixed size, and each phase of
a Newton step holds only what it reads.  At any moment the solve holds
its workspace (2 + 2n grid images for a batch of n of the k frames, one
more when the frames span more than one batch, a half spectrum counted
as one; see :class:`.operators.Workspace`), its point, and one of:

- the gradient pass: the point's evaluation (1 + k images and k masks of
  bools), D (k images, ``s`` held there first), one batch of z (n
  images, made per pass and added to the adjoint sum batch by batch) and
  the gradient;
- the Hessian solve: D, the right-hand side (the gradient, negated in
  place; the evaluation and the data gradient are dropped first), the
  preconditioner's inverse scaling and symbol (its scaling, which no
  PCG iteration reads, is dropped once they are built) and PCG's four
  vectors;
- the line search: the step and the candidate (each formed in the array
  of the last rejected one; the step is dropped once taken), and one
  trial's evaluation with its k-frame rho stack, which is freed before
  the evaluation returns.

Traced above its inputs with ``tracemalloc`` (warm 3-frame solves with
the preconditioner, in grid images), the phases peak at: 64x64 (one
3-frame batch) gradient 20.7, Hessian solve 19.5, line search 19.1;
128x128 (one frame per batch) 15.5, 16.3 and 15.6; 256x256 15.4, 16.2
and 15.5.  :func:`default_start` and what ``pg_ref`` read there are
dropped once ``pg_ref`` is known; a walk keeps them for its next solve.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gridfft import (COUNTS, OpCounts, _arg, _boolean, _keep_checked,
                      _nonneg_float, _positive_float, _positive_int, _ruled,
                      as_image, count_transforms)
from .objective import Objective, _Trial
from .operators import Workspace, _check_weights, _frozen, _hessian_kernel
from .precond import _IllConditionedSymbol, precond_build

__all__ = [
    "SolverOptions",
    "SolverReport",
    "LineSearchError",
    "LineSearchResult",
    "PcgBreakdownError",
    "projected_pcg",
    "linesearch",
    "projected_newton",
    "default_start",
]

MAX_HALVINGS = 20  # step halvings a line search tries before it gives up


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and caps of :func:`projected_newton`.

    ``newton_tol``: stop once the projected gradient norm is at most
    ``newton_tol * max(||P g0||, pg_ref)``, with ``||P g0||`` its value at
    the start and ``pg_ref`` its value at :func:`default_start` of the
    data; checked at the start and after every step.  Each field keeps the
    value its rule returns, so ``newton_tol="1e-3"`` stores ``1e-3``.
    """

    newton_tol: float = _ruled(_positive_float, 1e-4)
    newton_maxit: int = _ruled(_positive_int, 40)
    pcg_tol: float = _ruled(_positive_float, 1e-1)
    pcg_maxit: int = _ruled(_positive_int, 100)
    use_preconditioner: bool = _ruled(_boolean, False)

    __post_init__ = _keep_checked


@dataclass
class SolverReport:
    """Per-run diagnostics: traces, inner iteration counts, transform tally.

    ``pg_scale`` is the norm the Newton tolerance was applied to,
    ``max(pg_norms[0], pg_ref)``; it equals ``pg_norms[0]`` for a solve
    started at :func:`default_start`.  ``precond_fallbacks`` counts the
    steps whose system was solved without the preconditioner although it
    was on, for either of two causes: its symbol was too ill-conditioned
    to invert, so none was built; or the preconditioned PCG used all
    ``pcg_maxit`` iterations, so the system was solved again without it.
    In the second case the step's ``pcg_iterations`` entry counts both
    attempts.  ``counts`` holds the operations issued by the thread that
    ran the solve.  ``step_transforms`` holds, per accepted step, the
    transforms (fft2 + ifft2) that thread issued between the step's two
    recorded points: the Newton solve, the line search, and the new point's
    gradient.  The start's evaluation, gradient and ``pg_ref`` are in
    ``counts`` only, as is the work of a last step that is not taken (a
    failed line search, a PCG breakdown), which has no entry.
    """

    objective_trace: list = field(default_factory=list)
    pg_norms: list = field(default_factory=list)
    pg_scale: float = 0.0
    pcg_iterations: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    step_transforms: list = field(default_factory=list)
    counts: OpCounts = field(default_factory=OpCounts)
    termination: str = ""
    precond_fallbacks: int = 0

    @property
    def iterations(self) -> int:
        """Accepted Newton steps."""
        return len(self.step_lengths)

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
    mean = observed.mean(axis=0)
    return np.maximum(mean, 0.0, out=mean)


def _binding_set(x: np.ndarray, g: np.ndarray, scratch: np.ndarray):
    """``(binding, ||P g||)`` at ``x`` with gradient ``g``: the binding set
    (x <= 0 and g > 0), held at the bound, and the norm of the projected
    gradient ``P g``, ``g`` with the binding set zeroed, which is formed in
    the image ``scratch``."""
    binding = (x <= 0) & (g > 0)
    np.copyto(scratch, g)
    np.copyto(scratch, 0.0, where=binding)
    return binding, float(np.linalg.norm(scratch))


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
    _scratch=None,
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

    The iterate, residual and direction live in three arrays allocated
    here and updated in place, and the preconditioned residual and the
    Hessian product share a fourth: the product is formed once the
    direction holds the preconditioned residual, and is used up before the
    next one is formed.  What ``hess`` and ``precond`` return is copied in
    at once, so they may return a buffer they reuse on the next call (or
    their argument).  The products of the dot products and of the update
    ``x += alpha p`` are formed in ``_scratch``, an image that may be the
    buffer ``hess`` and ``precond`` return (None: one allocated here).

    ``tol`` is a finite number at least 0 (0 runs all ``maxit``
    iterations unless the residual vanishes) and ``maxit`` an integer at
    least 1; both are checked once, here.  Raises
    :class:`PcgBreakdownError` on non-positive curvature.
    """
    tol = _arg("tol", _nonneg_float, tol)
    maxit = _arg("maxit", _positive_int, maxit)
    rhs = as_image(rhs, "rhs")
    active = np.asarray(active, dtype=bool)
    if active.shape != rhs.shape:
        raise ValueError(
            f"active shape {active.shape} differs from rhs {rhs.shape}"
        )
    if x0 is not None:
        x0 = as_image(x0, "x0", rhs.shape)

    def project_into(dst, v):
        np.copyto(dst, v)
        np.copyto(dst, 0.0, where=active)
        return dst

    def dot(u, v, scratch):
        return float(np.multiply(u, v, out=scratch).sum())

    x = np.zeros_like(rhs)
    r = project_into(np.empty_like(rhs), rhs)
    # ||r|| as np.linalg.norm computes it (ravel, dot, sqrt), without its
    # wrapper: r is updated in place, so this view follows it.
    r_flat = r.ravel(order="K")

    def r_norm():
        return math.sqrt(r_flat.dot(r_flat))

    def result(iterations):
        return (x, iterations, r) if _residual else (x, iterations)

    rhs_norm = r_norm()
    if rhs_norm == 0.0:
        return result(0)
    stop = tol * rhs_norm
    # z = M^-1 r and hp = H p share one array: z is used up once p holds
    # it, and hp once r is updated.
    z = hp = np.empty_like(rhs)
    scratch = np.empty_like(rhs) if _scratch is None else _scratch
    if x0 is not None:
        project_into(x, x0)
        if np.any(x):  # a zero start is the cold start, at no extra cost
            r -= project_into(hp, (_start_hess or hess)(x))
            if r_norm() <= stop:
                return result(0)
    project_into(z, precond(r) if precond is not None else r)
    rz = dot(r, z, scratch)
    if rz <= 0.0:
        raise PcgBreakdownError(
            f"preconditioned residual product {rz:.3e} is not positive", x, 0
        )
    p = z.copy()
    for k in range(1, maxit + 1):
        project_into(hp, hess(p))
        ph = dot(p, hp, scratch)
        if ph <= 0.0:
            raise PcgBreakdownError(
                f"curvature p^T H p = {ph:.3e} at iteration {k}", x, k - 1
            )
        alpha = rz / ph
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, hp, out=hp)
        if r_norm() <= stop:
            return result(k)
        project_into(z, precond(r) if precond is not None else r)
        rz_next = dot(r, z, scratch)
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
) -> LineSearchResult:
    """Projected backtracking: first alpha in 1, 1/2, ..., 2^-MAX_HALVINGS
    whose point max(x + alpha s, 0) strictly decreases the objective.

    Each candidate is formed in the array of the last, rejected one, so
    ``obj.value`` must not keep the array it is given."""
    if current_value is None:
        current_value = obj.value(x)
    s = as_image(s, "s", np.shape(x))
    if not np.any(s):
        raise LineSearchError("zero search direction")
    alpha, cand = 1.0, None
    for _ in range(MAX_HALVINGS + 1):
        cand = np.multiply(alpha, s, out=cand)
        cand += x
        np.maximum(cand, 0.0, out=cand)
        val = obj.value(cand)
        if val < current_value:
            return LineSearchResult(x=cand, value=val, step=alpha)
        alpha *= 0.5
    raise LineSearchError(
        f"no objective decrease within {MAX_HALVINGS} halvings"
    )


def _hessian_solve(obj, weights, rhs, active, use_preconditioner, tol, maxit,
                   ws, x0=None, dhat=None, start_hess=None):
    """:func:`projected_pcg` on ``(A^T W A + lam L^T L) s = rhs``, with the
    operator and ``lam`` of ``obj`` and ``W = diag(weights)``, run in ``ws``:
    the one Hessian solve, of Newton and GCV.  Its caller has checked
    ``weights`` where it made them (a Newton step's D, a GCV fit's W^2).

    ``dhat`` is :func:`.precond.build_dhat` of ``weights`` when the caller
    already has it, and ``start_hess`` serves the product of the start
    ``x0`` (:func:`projected_pcg`'s ``_start_hess``) when the caller can
    form it more cheaply than the kernel.  With ``use_preconditioner`` the
    solve falls back to none in two cases: the symbol is too
    ill-conditioned to invert, so none is built; or the preconditioned
    solve uses all ``maxit`` iterations, so it is redone from ``x0``
    without one.  Returns ``(s, iterations, fell_back, capped, r)``:
    ``iterations`` counts every attempt, ``fell_back`` is true in either
    case, ``capped`` true when the solve that gave ``s`` used all ``maxit``
    iterations, and ``r`` is the projected residual it ended with
    (:func:`projected_pcg`'s ``_residual``), which only GCV reads.
    """
    precond, fell_back = None, False
    if use_preconditioner:
        try:
            pre = precond_build(obj.op, weights, obj.lam, dhat=dhat, ws=ws)
            # Its solve reads inv_dhat and inv_symbol alone, so PCG runs
            # without dhat, an image, unless the caller keeps it.
            pre = dataclasses.replace(pre, dhat=None)
            precond = functools.partial(pre.solve, ws=ws)
        except _IllConditionedSymbol:
            fell_back = True
    solve = functools.partial(
        projected_pcg,
        functools.partial(_hessian_kernel, obj.op, obj._penalty, weights, ws),
        rhs, active, tol=tol, maxit=maxit, x0=x0, _start_hess=start_hess,
        _residual=True, _scratch=ws.image,
    )
    s, iterations, r = solve(precond)
    capped = iterations == maxit
    if precond is not None and capped:
        s = r = pre = precond = None  # release the capped attempt first
        s, redo, r = solve(None)
        fell_back, capped, iterations = True, redo == maxit, iterations + redo
    return s, iterations, fell_back, capped, r


class _Trials:
    """Line-search stand-in for the objective that keeps the last trial's
    data-term evaluation (:meth:`.Objective._data_evaluation`: no z or D)
    and its penalized one, which shares its arrays.  Each trial is
    evaluated in the solve's workspace ``ws`` and is not checked: the line
    search's projected points are feasible by construction."""

    def __init__(self, obj: Objective, ws: Workspace):
        self.obj, self.ws = obj, ws
        self.last = self.data = None

    def value(self, x) -> float:
        self.last = self.data = None  # release the previous trial first
        self.data = self.obj._data_evaluation(x, self.ws)
        self.last = self.obj._penalized(self.data)
        return self.last.value


class _State(NamedTuple):
    """What a solve hands to the next: a point ``x``, its
    :meth:`.Objective._data_evaluation`, and its data gradient ``A^T z``
    and Hessian weights D from :meth:`.Objective._data_gradient`, all
    read-only and none dependent on lambda."""

    x: np.ndarray
    data_ev: _Trial
    g_data: np.ndarray
    d: np.ndarray


def _state_of(obj: Objective, x: np.ndarray, data_ev: _Trial,
              ws: Workspace) -> _State:
    """The :class:`_State` at the read-only ``x`` from its data evaluation:
    its data gradient and D, k+1 transforms."""
    g_data, d = obj._data_gradient(data_ev, ws)
    return _State(x, data_ev, _frozen(g_data), d)


def _reference(obj, x_ref, ws):
    """``(x_hat, data gradient)`` at ``x_ref``, all that ``pg_ref`` reads:
    2k+2 transforms, and no D."""
    data_ev = obj._data_evaluation(x_ref, ws)
    return data_ev.x_hat, _frozen(obj._data_gradient(data_ev, ws, hessian=False)[0])


def _start(obj, x0, walk, ws):
    """``(state, pg_ref)`` at the start ``x0``: its :class:`_State`, held by
    ``walk`` or evaluated here (2k+2 transforms), and the projected
    gradient norm at ``x_ref``, :func:`default_start` of the data.

    ``pg_ref`` is read from ``ref``, the half spectrum and data gradient
    at ``x_ref``, for the penalty's one transform, and ``ref`` is
    evaluated here (2k+2 transforms) when the walk holds none; when the
    start is ``x_ref`` itself, ``pg_ref`` is ``||P g0||``, which
    ``pg_scale`` takes anyway, and ``ref`` is read from the start's state.
    A walk keeps ``ref`` for its next solve; a standalone solve (``walk``
    None) drops ``x_ref`` and ``ref`` here, once ``pg_ref`` is read.
    """
    if walk is None:
        x_ref, held, ref = _frozen(default_start(obj.data)), None, None
    else:
        x_ref, held, ref = walk.x_ref, walk.state, walk.ref
    if held is not None and x0 is held.x:
        state = held
    else:
        if x0 is not x_ref:
            x0 = obj._check_x(x0, feasible=True, name="x0")
            # A start handed in from outside may be default_start, whose
            # pg_ref is its own ||P g0||: one test per start not held.
            x0 = x_ref if np.array_equal(x0, x_ref) else _frozen(x0.copy())
        state = _state_of(obj, x0, obj._data_evaluation(x0, ws), ws)
    if state.x is x_ref:
        ref, pg_ref = (state.data_ev.x_hat, state.g_data), 0.0  # ||P g0|| rules
    else:
        ref = ref or _reference(obj, x_ref, ws)
        g_ref = obj._add_penalty_gradient(ref[1].copy(), ref[0], ws)
        pg_ref = _binding_set(x_ref, g_ref, ws.image)[1]
    if walk is not None:
        walk.ref = ref
    return state, pg_ref


def projected_newton(
    obj: Objective,
    x0: np.ndarray,
    opts: SolverOptions | None = None,
    *,
    _walk=None,
):
    """Minimize the objective over x >= 0; returns ``(x, SolverReport)``.

    Per iteration: hold the binding set (x <= 0 and g > 0; Bertsekas,
    1982) at the bound, solve the Newton system on the other cells
    inexactly with projected PCG from rhs = -gradient, and line search
    over max(x + alpha s, 0).  The stop test reads ``||P g||``, the
    gradient norm off that same binding set.  The report records the
    objective value and ``||P g||`` at the start and after every accepted
    step, and the transforms each accepted step cost
    (``SolverReport.step_transforms``).  The run ends as
    ``converged`` once the projected gradient norm is at most
    ``opts.newton_tol * report.pg_scale``, where
    ``pg_scale = max(||P g0||, pg_ref)`` takes the larger of its value at
    ``x0`` and at :func:`default_start` of the data; a start that already
    meets this takes 0 steps.  A step whose Hessian weights are all zero
    (every residual saturated) is not taken: the run stops with
    termination ``all_saturated`` and returns the current iterate.

    ``_walk`` is the :class:`.gcv._Walk` the solve runs in (None: a
    standalone solve, which derives :func:`default_start` and its
    workspace itself).  The solve runs in the walk's workspace, starts
    from the walk's ``state`` when ``x0`` is its point, reads ``pg_ref``
    from the walk's ``x_ref`` and ``ref``, and leaves its end state and
    ``ref`` in the walk; it returns the end state's read-only point.  The
    result is bitwise the same either way.
    """
    opts = opts or SolverOptions()
    ws = Workspace(obj.op.shape, obj.op.n_frames) if _walk is None else _walk.ws
    report = SolverReport()
    with count_transforms() as tally:
        x, end = _newton_loop(obj, x0, _walk, opts, report, ws)
    report.counts = tally.copy()
    if _walk is None:
        end = None  # the solve's own arrays: no walk holds them
        x.setflags(write=True)
        return x, report
    _walk.state = end
    return x, report


def _newton_loop(obj, x0, walk, opts, report, ws):
    """Newton steps from ``x0`` (:func:`_start` gives its state and
    ``pg_ref``); returns ``(x, end)``: the last, read-only iterate and its
    :class:`_State`.  ``end`` is None when the run dropped the state
    before it ended, and the start's own after 0 steps.

    Pass ``k`` records point ``k``, the start at 0 and the iterate of the
    ``k``-th accepted step after it, and for ``k > 0`` the transforms this
    thread issued since point ``k - 1``; then it takes the next step
    unless the run ends there.  Each accepted iterate is evaluated once,
    by the line search, which forms no z or D; its gradient pass then
    forms the data gradient and the Hessian weights D, which the next
    step's Hessian solve and preconditioner read.  The data gradient is
    kept apart, in the state, and the penalty added to a copy.  Every evaluation made here lives only in this frame, so
    dropping the name releases it.  Every gradient, Hessian product and
    preconditioner solve below runs in the workspace ``ws``.
    """
    state, pg_ref = _start(obj, x0, walk, ws)
    x, x0 = state.x, None
    ev = obj._penalized(state.data_ev)
    report.termination = "max_iterations"
    for k in range(opts.newton_maxit + 1):
        g = obj._add_penalty_gradient(state.g_data.copy(), ev.x_hat, ws)
        report.objective_trace.append(ev.value)
        binding, pg_norm = _binding_set(x, g, ws.image)
        report.pg_norms.append(pg_norm)
        if k == 0:
            report.pg_scale = max(pg_norm, pg_ref)
            tol = opts.newton_tol * report.pg_scale
        else:
            report.step_transforms.append(COUNTS.fft2 + COUNTS.ifft2 - mark)
        mark = COUNTS.fft2 + COUNTS.ifft2
        if pg_norm <= tol:
            report.termination = "converged"
            break
        if k == opts.newton_maxit:
            break
        d = _check_weights(obj.op, state.d)  # all zero if all saturated
        if not np.any(d):
            report.termination = "all_saturated"
            break
        value = ev.value
        # Drop this point's evaluation and data gradient before the
        # preconditioner build, its weights and gradient once the direction
        # is formed, and the direction once the step is taken, so the
        # Hessian solve, where a solve's memory peaks, and the line search
        # run beside as few arrays as possible.  The right-hand side is the
        # gradient, negated in place.
        ev = state = None
        try:
            # the residual (GCV's) is dropped here, before the line search
            s, inner, fell_back = _hessian_solve(
                obj, d, np.negative(g, out=g), binding, opts.use_preconditioner,
                opts.pcg_tol, opts.pcg_maxit, ws,
            )[:3]
        except PcgBreakdownError:
            report.termination = "pcg_breakdown"
            break
        d = g = binding = None
        report.pcg_iterations.append(inner)
        report.precond_fallbacks += fell_back

        trials = _Trials(obj, ws)
        try:
            ls = linesearch(trials, x, s, value)
        except LineSearchError:
            report.termination = "linesearch_failure"
            break
        x, ev, s = _frozen(ls.x), trials.last, None
        report.step_lengths.append(ls.step)
        state = _state_of(obj, x, trials.data, ws)
        trials = ls = None
    return x, state
