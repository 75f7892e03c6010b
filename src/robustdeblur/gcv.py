"""Regularization parameter selection by robust generalized cross validation.

The selected lambda minimizes

    gcv(lam) = m * ||W r_lam||^2 / trace(I - A_lam)^2

where r_lam is the residual of the solution at lam, W is a reweighting
that caps each saturated residual's contribution at the loss threshold
(so outliers cannot steer the parameter choice), and A_lam is the
influence matrix mapping data to fitted data.  The trace is estimated
stochastically with a single Rademacher probe (Hutchinson, 1989): for
any matrix M, E[v^T M v] = trace(M) when v has independent +-1 entries.
Applying A_lam to the probe needs one linear solve H y = rhs, done by
truncated projected CG on the weighted normal equations restricted to
the positive support of the solution.  The estimate needs only the
quadratic form rhs^T H^-1 rhs, which it reads as rhs^T y + r^T y from
the solve's right-hand side and its final projected residual r, so it
costs no transform beyond the solve.  That read equals
2 rhs^T y - y^T H y and falls short of the exact form by e^T H e, the
squared energy norm of the solve's error e (Golub and Meurant,
*Matrices, Moments and Quadrature*, 2010): second order in the error,
where rhs^T y alone is off to first order.  The solve is the Newton
steps' Hessian solve, :func:`.solver._hessian_solve`, with Hessian
weights W^2: with ``GcvOptions.solver.use_preconditioner`` set it uses
the same column-scaling preconditioner, and the stopping rule (the
plain projected residual relative to ``||P rhs||``, the residual of the
zero start) is the same either way.  A preconditioned solve that stops
at the iteration cap is redone without the preconditioner.  An estimate
is flagged unreliable when its solve breaks down, and then reads rhs^T y
alone, or when the solve that gives it stops at the iteration cap.

The solve stops at ``GcvOptions.inner_cg_tol`` (default 1e-2) of its
zero start's residual: with a second-order read, the precision a
single-probe estimate can use (see :class:`GcvOptions`).

A :class:`_Walk`, the only chain of warm-started solves over lambda,
serves :func:`minimize_gcv` and :func:`.testbed.lambda_scan`; the two
differ only by the probe.  Each solve hands its end state to the next,
and the walk holds four things, a plain scan the first two alone;
standalone :func:`gcv_eval` and :func:`trace_term` calls make a
one-point walk and start cold.  Each is read because the walk holds it,
never because two arrays compare equal.  The first three leave every
result bitwise unchanged; the influence start moves an estimate only
within the solve's tolerance.  A walk with a probe checks it once, when
the walk is made.  Every walk runs its Newton solves, and a walk with a
probe its fits and influence solves, in its one workspace.

- The end state of its last Newton solve (:class:`.solver._State`): the
  point, its data evaluation and its data gradient.  Only the penalty
  term depends on lambda, so the next solve, which starts there, rebuilds
  its start's value and gradient for the penalty's one transform instead
  of an evaluation and a gradient.  A solve that ends ``pcg_breakdown``
  or ``linesearch_failure`` drops its state, and the next one evaluates
  its start, as the first solve of a walk does.
- :func:`.solver.default_start` of the data, derived once per walk (the
  first start when ``x0`` is None), with its half spectrum and data
  gradient once a solve has evaluated them, which is all ``pg_ref``
  reads: one transform per solve.
- The :class:`_Fit` of its current point: W, ``||W r||^2``, the
  influence solve's right-hand side ``A^T W v`` and weights W^2, and the
  preconditioner's scaling built from W^2, none of which depends on
  lambda, all built from the ``A x`` and inlier mask of the end state's
  evaluation; W^2 is checked then.  Late in a search most solves take no
  Newton step and hand back the state they were given, so they read the
  fit instead of spending 2(k+1) transforms on it ((k+1) without the
  preconditioner).
- The lambda-free half of the current influence start's Hessian
  product, ``y0_hat`` and ``A^T W^2 A y0`` on the half spectrum.  The
  last influence solution ``y`` is the next influence solve's start, as
  each Newton solve starts from the previous ``x``: nearby lambdas have
  close solutions.  The stop reference does not depend on the start, so
  a warm start only saves iterations; a nonzero start costs one Hessian
  product for its residual.  When the fit is unchanged and the previous
  influence solve took 0 iterations, its ``y`` is bitwise its start, and
  only the penalty and one inverse transform are left to apply.

Such a zero-step evaluation costs 2 transforms for its Newton solve's
start and ``pg_ref``, then 2k+2 for the influence solve's warm-start
residual, or 1 when that start's product is read, and 2k+4 per PCG
iteration.

One probe is drawn per minimization and shared across every lambda, so
the scalar function handed to the optimizer is deterministic; redrawing
per evaluation would make the minimizer chase sampling noise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gridfft import (_arg, _keep_checked, _nonneg_float, _nonneg_int,
                      _positive_float, _positive_int, _ruled, _write_table,
                      count_transforms)
from .objective import FLOOR, Evaluation, Objective
from .operators import (Workspace, _check_weights, _frozen, _hessian_data_half,
                        _hessian_finish)
from .precond import _scaling
from .solver import (
    PcgBreakdownError,
    SolverOptions,
    SolverReport,
    _hessian_solve,
    default_start,
    projected_newton,
)

__all__ = [
    "GcvOptions",
    "LambdaPoint",
    "rademacher_probe",
    "trace_term",
    "gcv_eval",
    "minimize_gcv",
    "bounded_minimize",
    "write_gcv_trace",
]

# Cap on the functional evaluations of one minimize_gcv search.
MAX_EVALUATIONS = 100


@dataclass(frozen=True)
class GcvOptions:
    """Search bracket and tolerances for the 1D minimization.

    ``inner_cg_tol`` stops each influence solve once its projected
    residual is that fraction of ``||P rhs||``.  The default 1e-2 is as
    tight as the estimate can use: one probe's estimate already spreads
    by about 10% between probes, and :func:`trace_term` reads the
    solve's quadratic form to second order in its error, so a 1e-2 solve
    misses it by less than a 1e-3 solve read to first order did: against
    a converged solve, the median relative error of the estimates of
    three seed-1 ``gcv-ash64`` searches is 1.2e-7, against 1.2e-6 at
    1e-3 and 6.9e-6 (max 5e-5) at 1e-2 when read to first order.  On
    the ``gcv-ash64`` panel (seeds 1-8) it spends 19-23% fewer transforms
    than 1e-3, while lambda* moves by at most 0.7% and the panel-mean
    relative error by at most 3e-6.
    """

    lambda_lo: float = _ruled(_nonneg_float, 0.0)
    lambda_hi: float = _ruled(_nonneg_float, 1e-1)
    x_tol: float = _ruled(_positive_float, 1e-8)
    inner_cg_tol: float = _ruled(_positive_float, 1e-2)
    inner_cg_maxit: int = _ruled(_positive_int, 150)
    probe_seed: int = _ruled(_nonneg_int, 0)
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        _keep_checked(self)
        if self.lambda_hi < self.lambda_lo:
            raise ValueError("bracket must satisfy 0 <= lambda_lo <= lambda_hi")
        if not isinstance(self.solver, SolverOptions):
            raise ValueError(f"solver must be a SolverOptions, got {self.solver!r}")


@dataclass
class LambdaPoint:
    """The solve at ``lam`` of a :class:`_Walk` and, in a GCV search, the
    functional there, ``gcv_value = m * numerator / trace^2``; in a plain
    scan the four GCV fields are None and both influence counts 0."""

    lam: float
    gcv_value: float | None
    numerator: float | None  # ||W r_lam||^2
    trace_estimate: float | None
    newton_report: SolverReport
    x: np.ndarray
    reliable: bool | None = True
    influence_iterations: int = 0  # PCG iterations of the trace solve
    influence_transforms: int = 0  # its transforms, counted on this thread


def _weights_from_fit(obj: Objective, ev: Evaluation, r: np.ndarray) -> np.ndarray:
    """Reweighting W of the fit ``ev.ax = A x`` of an evaluation, with its
    inlier mask; ``r = ev.ax - b``.

    Inliers get the usual 1/sqrt([Ax] + sigma^2); on a saturated entry the
    weight becomes beta / ([Ax] - b), so |W_ii r_i| = beta exactly and
    ||W r||^2 = 2 sum rho(t) regardless of how wild the outliers are.
    """
    s, inlier = np.maximum(ev.ax + obj.sigma**2, FLOOR), ev.inlier_mask
    # |t| > beta >= 0 forces r != 0, so the outlier branch never divides by 0
    return np.where(inlier, 1.0 / np.sqrt(s), obj.loss.beta / np.where(inlier, 1.0, r))


def rademacher_probe(shape, seed: int) -> np.ndarray:
    """Seeded +-1 probe; E[v v^T] = I and v_i^2 = 1 exactly."""
    rng = np.random.default_rng(_arg("seed", _nonneg_int, seed))
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


@dataclass(frozen=True)
class _Fit:
    """The terms of a GCV evaluation that depend on its solution ``x`` (and
    on the data term and the probe v) but not on lambda.  Arrays are
    read-only."""

    x: np.ndarray
    numerator: float  # ||W r||^2
    rhs: np.ndarray  # A^T W v, the influence solve's right-hand side
    weights: np.ndarray  # W^2, the influence solve's Hessian weights
    dhat: np.ndarray | None  # build_dhat of W^2; None when unpreconditioned


def _fit_at(obj: Objective, x: np.ndarray, ev: Evaluation, probe: np.ndarray,
            use_preconditioner: bool, ws: Workspace) -> _Fit:
    """The :class:`_Fit` of ``x`` from its data evaluation ``ev``: k+1
    transforms for ``rhs``, and k+1 for ``dhat`` in ``ws`` when
    preconditioned.  W^2 is checked here; W is positive, so ``dhat``
    needs no all-zero test."""
    r = ev.ax - obj.data
    W = _weights_from_fit(obj, ev, r)
    numerator = float(np.sum((W * r) ** 2))
    rhs = _frozen(obj.op.apply_adjoint(W * probe))
    weights = _frozen(_check_weights(obj.op, W * W))
    dhat = _frozen(_scaling(obj.op, weights, ws)) if use_preconditioner else None
    return _Fit(x, numerator, rhs, weights, dhat)


class _Walk:
    """Warm-started solves of the lambda-free ``obj`` over lambda with
    ``opts``, the only chain of solves over lambda (see the module
    docstring).  It holds ``x``, the next warm start (``x0``; None:
    ``x_ref``); ``points`` in visit order and a cache from lambda to
    point; ``ws``, the workspace every solve runs in; ``state``, the end
    state the last solve handed back (None before the first solve and
    after one that dropped it); and ``x_ref``, the default start of the
    data, with ``ref``, its half spectrum and data gradient once a solve
    has evaluated them.  Each solve reads and replaces the last three
    (:func:`.solver.projected_newton`).

    Without a ``probe`` it is a plain scan, and the GCV fields of its
    points stay empty.  With one, each point is a :func:`gcv_eval`, and it
    also holds ``probe``, checked here, and runs its fits and influence
    solves in ``ws``; ``y``, the last influence solution and the next
    influence solve's start (None: zero), and ``iterations`` and
    ``transforms``, the PCG iterations and transforms that solve took;
    ``fit``, the :class:`_Fit` of its current point; and the lambda-free
    half of the current influence start's Hessian product.  Standalone
    :func:`gcv_eval` and :func:`trace_term` calls each make a one-point
    walk."""

    def __init__(self, obj: Objective, opts: GcvOptions, x0=None, probe=None):
        self._obj, self._opts = obj, opts
        self.x_ref = _frozen(default_start(obj.data))
        self.x = self.x_ref if x0 is None else x0
        self.state = self.ref = None
        self.points, self._cache = [], {}
        self.ws = Workspace(obj.op.shape, obj.op.n_frames)
        self.probe = self.y = self.fit = None
        self.iterations = self.transforms = 0
        self._start = None  # (y0_hat, acc) of _hessian_data_half
        if probe is not None:
            probe, shape = np.asarray(probe, dtype=np.float64), obj.data.shape
            if probe.shape != shape or not np.all(np.isfinite(probe)):
                raise ValueError(
                    f"probe must be finite with shape {shape}, got {probe.shape}"
                )
            self.probe = probe

    def visit(self, lam) -> LambdaPoint:
        """The point at ``lam``: the cached one if ``lam`` was visited
        before, at no transform; else solved from ``x`` (and scored, with a
        probe), recorded, and made the next warm start."""
        lam = float(lam)
        if lam not in self._cache:
            if self.probe is None:
                x, report = projected_newton(self._obj.with_lambda(lam), self.x,
                                             self._opts.solver, _walk=self)
                point = LambdaPoint(lam, None, None, None, report, x, None)
            else:
                point = gcv_eval(self._obj, lam, self.x, self._opts, _walk=self)
            self._cache[lam] = point
            self.points.append(point)
            self.x = point.x
        return self._cache[lam]

    def fit_of(self, x: np.ndarray) -> _Fit:
        """The fit of the point ``x``: the held one when ``x`` is its point;
        else built from the end state's evaluation when ``x`` is that
        state's point, or from one made here (k+1 transforms) in a fresh
        walk or after a solve that dropped its state."""
        if self.fit is None or self.fit.x is not x:
            state = self.state
            if state is not None and state.x is x:
                ev = state.data_ev
            else:
                ev = self._obj._data_evaluation(x, self.ws)
            self.fit = _fit_at(self._obj, x, ev, self.probe,
                               self._opts.solver.use_preconditioner, self.ws)
            self._start = None
        return self.fit

    def start_product(self, obj: Objective, y0: np.ndarray) -> np.ndarray:
        """``H y0`` at ``obj.lam`` with the weights of ``fit``, in ``ws.image``.

        ``y0`` is the current influence start.  Its lambda-free half (2k+1
        transforms) is formed at the first call and held until the fit is
        rebuilt or an influence solve moves ``y`` off its start; the
        penalty and the inverse transform (1 transform) are applied at
        every call, so the product is bitwise that of
        :func:`.operators._hessian_kernel`.
        """
        if self._start is None:
            y0_hat, acc = _hessian_data_half(obj.op, self.fit.weights, self.ws, y0)
            self._start = (y0_hat.copy(), acc.copy())
        else:
            y0_hat, acc = self.ws.spectrum, self.ws.stack_spectrum[0]
            np.copyto(y0_hat, self._start[0])
            np.copyto(acc, self._start[1])
        return _hessian_finish(obj.op, obj._penalty, y0_hat, acc, self.ws)


def trace_term(obj: Objective, x_lam: np.ndarray, probe: np.ndarray,
               opts: GcvOptions | None = None, *, _walk: _Walk | None = None):
    """Estimate trace(I - A_lam) = v^T v - v^T W A H^-1 A^T W v as
    v^T v - (rhs^T y + r^T y).

    ``y`` approximately solves the influence system at ``lam = obj.lam``,
    restricted to the positive support of ``x_lam``:

        D (A^T W^2 A + lam L^T L) D y = D rhs,   rhs = A^T W v,
        D = diag(x_lam > 0),

    by the Newton steps' :func:`.solver._hessian_solve` until the projected
    residual ``r = D (rhs - H y)`` is at most
    ``opts.inner_cg_tol * ||P rhs||``, preconditioned with weights W^2
    when ``opts.solver.use_preconditioner`` and the preconditioner's
    symbol can be inverted.  ``rhs^T y + r^T y = 2 rhs^T y - y^T H y``
    reads ``rhs^T y*`` of the exact solution ``y*`` to within
    ``(y* - y)^T H (y* - y)``, second order in the solve's error, which
    is what lets the default tolerance be 1e-2 (see :class:`GcvOptions`);
    both terms use arrays the solve already holds, so the read costs no
    transform.  A probe or ``x_lam`` off the grid raises ``ValueError``.
    Returns ``(estimate, reliable)``; ``reliable`` goes false when CG hits
    non-positive curvature and only a partial solve is available, whose
    estimate reads ``rhs^T y`` alone, or when the solve the estimate is
    read from uses all ``opts.inner_cg_maxit`` iterations.  A
    preconditioned solve that uses them all is redone without the
    preconditioner (:func:`.solver._hessian_solve`), so it is unreliable
    only when the redo uses them all too; both attempts count in the
    walk's ``iterations``.

    ``_walk`` is the :class:`_Walk` with a probe, made with ``opts``
    (None: a one-point walk at ``x_lam`` with ``probe``, both checked),
    that the probe, W, rhs and the scaling are read from, whose workspace
    the solve runs in, and whose ``y``, the CG's start (zeroed off the
    support; zero when None), becomes this solve's ``y``.  The stop test
    keeps its ``||P rhs||`` reference, so a start near the solution ends
    the solve early, after one Hessian product for its residual, which
    :meth:`_Walk.start_product` serves; a start that already meets the
    test takes 0 iterations, and its estimate adds ``r^T y`` for that
    start residual.  The iterations are left in the walk's
    ``iterations``, and the transforms the solve issued on the calling
    thread in its ``transforms``.
    """
    opts = opts or GcvOptions()
    use_preconditioner = opts.solver.use_preconditioner
    if _walk is None:
        x_lam = obj._check_x(x_lam, feasible=False, name="x_lam")
        _walk = _Walk(obj, opts, x_lam, probe)
    fit = _walk.fit_of(x_lam)
    with count_transforms() as tally:
        try:
            y, iterations, _, capped, r = _hessian_solve(
                obj, fit.weights, fit.rhs, x_lam <= 0, use_preconditioner,
                opts.inner_cg_tol, opts.inner_cg_maxit, _walk.ws, x0=_walk.y,
                dhat=fit.dhat,
                start_hess=functools.partial(_walk.start_product, obj),
            )
            reliable = not capped
            # rhs^T y + r^T y = 2 rhs^T y - y^T H y, short of rhs^T y* by
            # the solve error's energy norm squared
            quadratic = np.sum(fit.rhs * y) + np.sum(r * y)
        except PcgBreakdownError as err:
            warnings.warn(
                f"trace estimation CG broke down ({err}); value is unreliable",
                RuntimeWarning,
            )
            y, iterations = err.iterate, err.iterations
            reliable = False
            quadratic = np.sum(fit.rhs * y)
    if iterations:  # y moved off the start whose product the walk holds
        _walk._start = None
    _walk.y, _walk.iterations = y, iterations
    _walk.transforms = tally.fft2 + tally.ifft2
    estimate = float(np.sum(_walk.probe * _walk.probe) - quadratic)
    return estimate, reliable


def gcv_eval(
    obj: Objective,
    lam: float,
    warm_start: np.ndarray,
    opts: GcvOptions,
    probe: np.ndarray | None = None,
    *,
    _walk: _Walk | None = None,
) -> LambdaPoint:
    """Solve at ``lam`` and evaluate the functional there: a
    :class:`_Walk` with a probe makes each of its points by this call.

    ``_walk`` is the :class:`_Walk` with a probe, made with ``obj`` and
    ``opts``, that the Newton solve and :func:`trace_term` read from and
    leave their state in (None: a one-point walk from ``warm_start`` with
    ``probe``, drawn from ``opts.probe_seed`` when None).
    """
    if _walk is None:
        if probe is None:
            probe = rademacher_probe(obj.data.shape, opts.probe_seed)
        _walk = _Walk(obj, opts, warm_start, probe)
    obj_lam = obj.with_lambda(lam)
    x_lam, report = projected_newton(obj_lam, warm_start, opts.solver,
                                     _walk=_walk)
    estimate, reliable = trace_term(obj_lam, x_lam, _walk.probe, opts,
                                    _walk=_walk)
    fit = _walk.fit
    m = obj.n_residuals
    denom = estimate * estimate
    value = m * fit.numerator / denom if denom > 0 else np.inf
    return LambdaPoint(
        lam=float(lam),
        gcv_value=value,
        numerator=fit.numerator,
        trace_estimate=estimate,
        newton_report=report,
        x=x_lam,
        reliable=reliable,
        influence_iterations=_walk.iterations,
        influence_transforms=_walk.transforms,
    )


def bounded_minimize(func, lo: float, hi: float, x_tol: float,
                     max_evaluations: int = MAX_EVALUATIONS) -> float:
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
    (``hi <= lo``) returns ``lo`` without evaluating.  ``x_tol`` must be
    positive and finite, ``max_evaluations`` an integer at least 1.
    """
    x_tol = _arg("x_tol", _positive_float, x_tol)
    max_evaluations = _arg("max_evaluations", _positive_int, max_evaluations)
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
    call order; a collapsed bracket (``lambda_hi <= lambda_lo``) evaluates
    ``lambda_lo`` alone.  :func:`bounded_minimize` drives a :class:`_Walk`
    from ``x0`` with the probe, drawn once from ``probe_seed``, so each
    evaluation warm-starts from the previous solution and reads the
    walk's state the previous one left (see the module docstring).  Each
    result is bitwise that of a :func:`gcv_eval` from the same warm start
    with a fresh walk whose influence start ``y`` is the same; that
    start moves an estimate only within ``inner_cg_tol``.  The whole
    trajectory is deterministic given (instance, options).

    Evaluations whose trace estimate has ``reliable=False``, or whose
    solve did not end ``converged``, steer the search like any other.
    After the search one ``RuntimeWarning`` gives how many there were and
    whether lambda* is one of them; a search without any warns nothing.
    """
    opts = opts or GcvOptions()
    walk = _Walk(obj, opts, x0, rademacher_probe(obj.data.shape, opts.probe_seed))
    lambda_star = bounded_minimize(
        lambda lam: walk.visit(lam).gcv_value,
        opts.lambda_lo, opts.lambda_hi, opts.x_tol, MAX_EVALUATIONS,
    )
    # a cache hit unless the bracket collapsed, which bounded_minimize
    # returns without evaluating
    at_star = _flag_counts([walk.visit(lambda_star)])
    evaluations = walk.points
    unreliable, nonconverged = _flag_counts(evaluations)
    if unreliable or nonconverged:
        warnings.warn(
            f"GCV search used {unreliable} of {len(evaluations)} evaluations "
            f"with reliable=False and {nonconverged} whose solve did not end "
            f"converged; lambda*={lambda_star:.6e} is "
            f"{'one' if any(at_star) else 'not one'} of them",
            RuntimeWarning,
            stacklevel=2,
        )
    return lambda_star, evaluations


def _flag_counts(evaluations) -> tuple[int, int]:
    """How many evaluations have ``reliable=False``, and how many a solve
    that did not end ``converged``."""
    return (
        sum(not ev.reliable for ev in evaluations),
        sum(ev.newton_report.termination != "converged" for ev in evaluations),
    )


def write_gcv_trace(path, evaluations) -> None:
    """CSV trace of the minimization, one row per functional evaluation."""
    _write_table(
        path, "gcv-trace v1", "lambda,gcv,numerator,trace_estimate",
        [("%.12e" % ev.lam, "%.12e" % ev.gcv_value, "%.12e" % ev.numerator,
          "%.12e" % ev.trace_estimate) for ev in evaluations],
    )
