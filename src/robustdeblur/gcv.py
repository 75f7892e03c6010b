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
zero start) is the same either way.  An estimate is flagged unreliable
when its solve breaks down, and then reads rhs^T y alone, or stops at
the iteration cap.

The solve stops at ``GcvOptions.inner_cg_tol`` (default 1e-2) of its
zero start's residual: with a second-order read, the precision a
single-probe estimate can use (see :class:`GcvOptions`).

A :func:`minimize_gcv` search carries one :class:`_Search` from each
evaluation to the next, holding four things; standalone
:func:`gcv_eval` and :func:`trace_term` calls make a fresh one and start
cold.  The memo, the fit and the start product leave every result
bitwise unchanged; the influence start moves an estimate only within the
solve's tolerance.

- The :class:`.solver._SearchMemo` of its Newton solves.  Only the
  penalty term depends on lambda, so each warm solve reads its start and
  ``pg_ref`` from the memo for the penalty's one transform each, instead
  of an evaluation and a gradient each.
- The last influence solution ``y``, the next influence solve's start,
  as each Newton solve starts from the previous ``x``: nearby lambdas
  have close solutions.  The stop reference does not depend on the
  start, so a warm start only saves iterations; a nonzero start costs
  one Hessian product for its residual.
- The :class:`_Fit` of the last solution: W, ``||W r||^2``, the
  influence solve's right-hand side ``A^T W v`` and weights W^2, and the
  preconditioner's scaling built from W^2, none of which depends on
  lambda.  Late in a search most solves take no Newton step (155 of 197
  on the seed-1 ``gcv-ash64`` panel), so their solution is bitwise the
  previous one and they read the fit instead of spending 3(k+1)
  transforms on it (2(k+1) without the preconditioner).
- The lambda-free half of the last influence start's Hessian product,
  ``y0_hat`` and ``A^T W^2 A y0`` on the half spectrum, kept for the
  current fit.  When the fit is read and the previous influence solve
  took 0 iterations, the start ``y0`` is bitwise the previous one too,
  and only the penalty and one inverse transform are left to apply.

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

from .gridfft import _write_table, count_transforms
from .objective import Objective, _scaled_terms
from .operators import Workspace, _frozen, _hessian_data_half, _hessian_finish
from .precond import build_dhat
from .solver import (
    PcgBreakdownError,
    SolverOptions,
    SolverReport,
    _hessian_solve,
    _SearchMemo,
    default_start,
    projected_newton,
)

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

    lambda_lo: float = 0.0
    lambda_hi: float = 1e-1
    x_tol: float = 1e-8
    inner_cg_tol: float = 1e-2
    inner_cg_maxit: int = 150
    probe_seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.lambda_lo < 0 or self.lambda_hi < self.lambda_lo:
            raise ValueError("bracket must satisfy 0 <= lambda_lo <= lambda_hi")
        if self.x_tol <= 0 or self.inner_cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.inner_cg_maxit < 1:
            raise ValueError("inner_cg_maxit must be at least 1")


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
    influence_iterations: int = 0  # PCG iterations of the trace solve
    influence_transforms: int = 0  # its transforms, counted on this thread


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


def _check_probe(obj: Objective, probe) -> np.ndarray:
    """The probe as floats; it must be finite and shaped like the data."""
    probe, shape = np.asarray(probe, dtype=np.float64), obj.data.shape
    if probe.shape != shape or not np.all(np.isfinite(probe)):
        raise ValueError(f"probe must be finite with shape {shape}, got {probe.shape}")
    return probe


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


def _fit_at(obj: Objective, x: np.ndarray, probe: np.ndarray,
            use_preconditioner: bool) -> _Fit:
    """The :class:`_Fit` of ``x``: 2(k+1) transforms for ``A x`` and ``rhs``,
    and (k+1) more for ``dhat`` when preconditioned."""
    ax = obj.op.apply(x)
    r = ax - obj.data
    W = _weights_from_fit(obj, ax, r)
    numerator = float(np.sum((W * r) ** 2))
    rhs = _frozen(obj.op.apply_adjoint(W * probe))
    weights = _frozen(W * W)
    dhat = _frozen(build_dhat(obj.op, weights)) if use_preconditioner else None
    return _Fit(x, numerator, rhs, weights, dhat)


class _Search:
    """What a :func:`minimize_gcv` search carries between evaluations (see
    the module docstring), for the data term of ``obj``, the probe and the
    preconditioner flag it was made with: ``memo``, the Newton solves'
    :class:`.solver._SearchMemo`; ``y``, the last influence solution and
    the next influence solve's start (None: zero), and ``iterations`` and
    ``transforms``, the PCG iterations and transforms that solve took;
    ``fit``, the :class:`_Fit` of the last
    solution, which :meth:`fit_of` serves again while the solution is
    bitwise unchanged; and the lambda-free half of the last influence
    start's Hessian product under that fit, which :meth:`start_product`
    serves again while the start is unchanged too."""

    def __init__(self, obj: Objective, probe: np.ndarray,
                 use_preconditioner: bool):
        self._obj, self._probe = obj, probe
        self._use_preconditioner = use_preconditioner
        self.memo = _SearchMemo()
        self.y = None
        self.iterations = self.transforms = 0
        self.fit = None
        self._start = None  # (y0, y0_hat, acc) of _hessian_data_half

    def fit_of(self, x: np.ndarray) -> _Fit:
        if self.fit is None or not np.array_equal(x, self.fit.x):
            self.fit = _fit_at(self._obj, x, self._probe,
                               self._use_preconditioner)
            self._start = None
        return self.fit

    def start_product(self, obj: Objective, ws: Workspace,
                      y0: np.ndarray) -> np.ndarray:
        """``H y0`` at ``obj.lam`` with the weights of ``fit``, in ``ws.image``.

        The lambda-free half (2k+1 transforms) is kept, and read again while
        the fit and ``y0`` are bitwise unchanged; the penalty and the
        inverse transform (1 transform) are applied at every call, so the
        product is bitwise that of :func:`.operators._hessian_kernel`.
        """
        if self._start is None or not np.array_equal(y0, self._start[0]):
            y0_hat, acc = _hessian_data_half(obj.op, self.fit.weights, ws, y0)
            self._start = (y0.copy(), y0_hat.copy(), acc.copy())
        else:
            y0_hat, acc = ws.spectrum, ws.stack_spectrum[0]
            np.copyto(y0_hat, self._start[1])
            np.copyto(acc, self._start[2])
        return _hessian_finish(obj.op, obj._penalty, y0_hat, acc, ws)


def trace_term(obj: Objective, x_lam: np.ndarray, probe: np.ndarray,
               opts: GcvOptions | None = None, *, _search: _Search | None = None):
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
    transform.  A probe not shaped like the data raises ``ValueError``.
    Returns ``(estimate, reliable)``; ``reliable`` goes false when CG hits
    non-positive curvature and only a partial solve is available, whose
    estimate reads ``rhs^T y`` alone, or when it uses all
    ``opts.inner_cg_maxit`` iterations.

    ``_search`` is the :class:`_Search` (None: a fresh one) that W, rhs and
    the scaling are read from, and whose ``y`` is the CG's start (zeroed
    off the support; zero when None) and is replaced by this solve's ``y``.
    The stop test keeps its ``||P rhs||`` reference, so a start near the
    solution ends the solve early, after one Hessian product for its
    residual, which :meth:`_Search.start_product` serves; a start that
    already meets the test takes 0 iterations, and its estimate adds
    ``r^T y`` for that start residual.  The iterations are left in the
    search's ``iterations``, and the transforms the solve issued on the
    calling thread in its ``transforms``.
    """
    opts = opts or GcvOptions()
    probe = _check_probe(obj, probe)
    use_preconditioner = opts.solver.use_preconditioner
    search = _Search(obj, probe, use_preconditioner) if _search is None else _search
    fit = search.fit_of(x_lam)
    ws = Workspace(obj.op.shape, obj.op.n_frames)
    with count_transforms() as tally:
        try:
            y, iterations, _, r = _hessian_solve(
                obj, fit.weights, fit.rhs, x_lam <= 0, use_preconditioner,
                opts.inner_cg_tol, opts.inner_cg_maxit, ws, x0=search.y,
                dhat=fit.dhat,
                start_hess=functools.partial(search.start_product, obj, ws),
                residual=True,
            )
            reliable = iterations < opts.inner_cg_maxit
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
    search.y, search.iterations = y, iterations
    search.transforms = tally.fft2 + tally.ifft2
    estimate = float(np.sum(probe * probe) - quadratic)
    return estimate, reliable


def gcv_eval(
    obj: Objective,
    lam: float,
    warm_start: np.ndarray,
    opts: GcvOptions,
    probe: np.ndarray | None = None,
    *,
    _search: _Search | None = None,
) -> GcvEvaluation:
    """Solve at ``lam`` and evaluate the functional there.

    ``_search`` is the :class:`_Search`, made with ``obj``, ``probe`` and
    ``opts.solver.use_preconditioner``, that the Newton solve and
    :func:`trace_term` read from and leave their state in (None: a fresh
    one, so the call starts cold).
    """
    if probe is None:
        probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    probe = _check_probe(obj, probe)
    if _search is None:
        _search = _Search(obj, probe, opts.solver.use_preconditioner)
    obj_lam = obj.with_lambda(lam)
    x_lam, report = projected_newton(obj_lam, warm_start, opts.solver,
                                     _memo=_search.memo)
    fit = _search.fit_of(x_lam)
    estimate, reliable = trace_term(obj_lam, x_lam, probe, opts, _search=_search)
    m = obj.n_residuals
    denom = estimate * estimate
    value = m * fit.numerator / denom if denom > 0 else np.inf
    return GcvEvaluation(
        lam=float(lam),
        gcv_value=value,
        numerator=fit.numerator,
        trace_estimate=estimate,
        newton_report=report,
        x=x_lam,
        reliable=reliable,
        influence_iterations=_search.iterations,
        influence_transforms=_search.transforms,
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
    call order; a collapsed bracket (``lambda_hi <= lambda_lo``) evaluates
    ``lambda_lo`` alone.  Each Newton solve warm-starts from the previous
    evaluation's solution ``x``; the probe is drawn once from
    ``probe_seed``.  The evaluations share one :class:`_Search`: each warm
    Newton solve reads its start and ``pg_ref`` from its memo, each
    influence solve starts from the previous evaluation's ``y`` (the first
    from zero) and keeps its ``inner_cg_tol * ||P rhs||`` stop test, so
    the start moves an estimate only within that tolerance, and an
    evaluation whose solve took no step reads its solution's weights,
    numerator, influence right-hand side and preconditioner scaling from
    the previous one, and also its influence start's lambda-free Hessian
    product when the previous influence solve took 0 iterations.  Each
    result is bitwise that of a :func:`gcv_eval` from the same warm start
    with a fresh search whose ``y`` is the same.
    The whole trajectory is deterministic given (instance, options).

    Evaluations whose trace estimate has ``reliable=False``, or whose
    solve did not end ``converged``, steer the search like any other.
    After the search one ``RuntimeWarning`` gives how many there were and
    whether lambda* is one of them; a search without any warns nothing.
    """
    opts = opts or GcvOptions()
    probe = rademacher_probe(obj.data.shape, opts.probe_seed)
    warm = default_start(obj.data) if x0 is None else np.array(x0, dtype=np.float64)
    search = _Search(obj, probe, opts.solver.use_preconditioner)
    evaluations: list[GcvEvaluation] = []
    cache: dict[float, GcvEvaluation] = {}

    def evaluate(lam: float) -> float:
        nonlocal warm
        lam = float(lam)
        hit = cache.get(lam)
        if hit is None:
            hit = gcv_eval(obj, lam, warm, opts, probe, _search=search)
            warm = hit.x
            cache[lam] = hit
            evaluations.append(hit)
        return hit.gcv_value

    lambda_star = bounded_minimize(
        evaluate, opts.lambda_lo, opts.lambda_hi, opts.x_tol, MAX_EVALUATIONS
    )
    # a cache hit unless the bracket collapsed, which bounded_minimize
    # returns without evaluating
    evaluate(lambda_star)
    unreliable, nonconverged = _flag_counts(evaluations)
    if unreliable or nonconverged:
        at_star = _flag_counts([cache[float(lambda_star)]])
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
