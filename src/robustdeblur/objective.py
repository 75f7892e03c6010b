"""Robust weighted-least-squares objective with Tikhonov smoothing.

The data term scores each residual through a loss applied to the scaled
residual ``t_i = ([Ax]_i - b_i) / sqrt([Ax]_i + sigma^2)``; the scaling
makes inlier residuals approximately unit normal under mixed
Poisson-Gaussian noise, so a fixed saturation threshold ``beta`` is
meaningful across pixels.  The full objective is

    J(x) = sum_i rho(t_i) + (lam / 2) * ||L x||^2,   x >= 0,

with L the periodic 5-point Laplacian.

Because the weights depend on the solution through both the residual and
its variance, the gradient and Hessian carry extra chain-rule terms; see
:func:`chain_rule_weights`.  For the Talwar loss these collapse to short
closed forms that are nonnegative everywhere, which is what makes the
data-term Hessian positive semidefinite and Newton's method safe.  The
other losses are provided for :func:`loss_eval`,
:func:`chain_rule_weights` and :func:`convexity_diagnostic` only;
:class:`Objective` rejects them.

:meth:`Objective.evaluate` gives ``A x`` and the value, z, D and the
inlier mask from it (1 fft2 + k ifft2 for k frames), and
:meth:`Objective.gradient_at` the gradient from that (k fft2 + 1 ifft2,
one more ifft2 when lam > 0).  Each is a data part that does not depend
on lam, plus the penalty.  The solver calls the parts, and holds only
what each phase of a Newton step reads: :meth:`Objective._data_evaluation`
gives a point's data value, ``x_hat``, ``A x`` and inlier mask, all a
line-search trial keeps, and :meth:`Objective._data_gradient` the data
gradient ``A^T z`` and D of an evaluated point, forming z a frame batch
at a time on its way into the adjoint sum.  :meth:`Objective._penalized`
and :meth:`Objective._add_penalty_gradient` add the penalty, so that a
search over lam adds each lam's penalty to the data parts it keeps (see
:mod:`.solver`).  ``evaluate`` forms its z and D with the same
per-batch function, :func:`_talwar_zd`, so every z and D is bitwise the
same whichever path formed it.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from .gridfft import (_arg, _checked, _irdft2, _keep_checked, _nonneg_float,
                      _positive_or_inf, _rdft2, _ruled, _spectral_energy,
                      as_image)
from .operators import (
    BlurOperator,
    Workspace,
    _add_adjoint,
    _adjoint_sum,
    _frame_batches,
    _frozen,
    _laplacian_half,
    _penalty_symbol,
    as_stack,
)

__all__ = [
    "BETA_95",
    "FLOOR",
    "LossFunction",
    "Objective",
    "Evaluation",
    "ConvexityReport",
    "loss_eval",
    "chain_rule_weights",
    "talwar_weights",
    "convexity_diagnostic",
]

# Talwar threshold with 95% asymptotic efficiency on unit-normal residuals.
BETA_95 = 2.795

# Variance floor applied before any division by [Ax] + sigma^2.  With
# x >= 0, nonnegative kernels, and sigma > 0 the floor is inert; it only
# guards the sigma = 0 corner where a dark pixel would divide by zero.
FLOOR = 1e-8

_KINDS = ("talwar", "huber", "fair", "logistic")


@dataclass(frozen=True)
class LossFunction:
    """Loss kind plus its saturation/scale parameter.

    ``beta = inf`` with the Talwar kind turns the loss quadratic
    everywhere, recovering plain (non-robust) weighted least squares.
    """

    kind: str = _ruled(_checked(str, _KINDS.__contains__, f"must be one of {_KINDS}"),
                       "talwar")
    beta: float = _ruled(_positive_or_inf, BETA_95)

    __post_init__ = _keep_checked


def loss_eval(loss: LossFunction, t):
    """Evaluate ``(rho(t), rho'(t), rho''(t))`` elementwise.

    All four losses satisfy rho >= 0, rho(0) = 0, rho(-t) = rho(t), and
    rho nondecreasing for t >= 0.  At the Talwar/Huber kink |t| = beta the
    inlier branch is closed (rho'(beta) = beta, rho''(beta) = 1) so the
    evaluation is total and deterministic.
    """
    t = np.asarray(t, dtype=np.float64)
    beta = loss.beta
    if loss.kind == "talwar":
        inlier = np.abs(t) <= beta
        rho = np.where(inlier, 0.5 * t * t, 0.5 * beta * beta)
        drho = np.where(inlier, t, 0.0)
        ddrho = np.where(inlier, 1.0, 0.0)
    elif loss.kind == "huber":
        inlier = np.abs(t) <= beta
        rho = np.where(inlier, 0.5 * t * t, beta * np.abs(t) - 0.5 * beta * beta)
        drho = np.where(inlier, t, beta * np.sign(t))
        ddrho = np.where(inlier, 1.0, 0.0)
    elif loss.kind == "fair":
        a = np.abs(t) / beta
        rho = beta * beta * (a - np.log1p(a))
        drho = t / (1.0 + a)
        ddrho = 1.0 / (1.0 + a) ** 2
    else:
        u = t / beta
        au = np.abs(u)
        # log(cosh(u)) = |u| + log1p(exp(-2|u|)) - log(2), overflow-safe
        rho = beta * beta * (au + np.log1p(np.exp(-2.0 * au)) - np.log(2.0))
        th = np.tanh(u)
        drho = beta * th
        ddrho = 1.0 - th * th
    if rho.ndim == 0:
        return float(rho), float(drho), float(ddrho)
    return rho, drho, ddrho


def chain_rule_weights(loss: LossFunction, ax, b, sigma):
    """Gradient weights z and Hessian diagonal D for any loss.

    With s = [Ax] + sigma^2, w = s^(-1/2), r = [Ax] - b, and t = w r,
    differentiating sum rho(w([Ax]) r([Ax])) through both factors gives

        z_i = (w' r + w) rho'(t),
        D_i = (w'' r + 2 w') rho'(t) + (w' r + w)^2 rho''(t).

    The w-derivative terms are what distinguish solution-dependent
    weighting from ordinary reweighted least squares.
    """
    ax = np.asarray(ax, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sigma2 = np.asarray(sigma, dtype=np.float64) ** 2
    s = np.maximum(ax + sigma2, FLOOR)
    r = ax - b
    w = s**-0.5
    wp = -0.5 * s**-1.5
    wpp = 0.75 * s**-2.5
    _, drho, ddrho = loss_eval(loss, w * r)
    z = (wp * r + w) * drho
    d = (wpp * r + 2.0 * wp) * drho + (wp * r + w) ** 2 * ddrho
    return z, d


def talwar_weights(ax, b, sigma: float, beta: float):
    """Closed-form Talwar z, D, and the inlier mask.

    On inliers (|t| <= beta) the chain rule simplifies to

        z_i = (1 - (b_i + sigma^2)^2 / s_i^2) / 2,
        D_i = (b_i + sigma^2)^2 / s_i^3,

    and both vanish on outliers.  D is nonnegative everywhere, so the
    data-term Hessian A^T D A is positive semidefinite for any iterate.
    """
    ax, b = np.broadcast_arrays(
        np.asarray(ax, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    shape, ax, b = ax.shape, ax.ravel(), b.ravel()  # the kernels write in place
    sigma2 = float(sigma) ** 2
    inlier = _scaled_terms(ax, b, sigma2, beta)[2]
    z, d = np.empty_like(ax), np.empty_like(ax)
    _talwar_zd(ax, b, inlier, sigma2, np.empty_like(ax), z, d)
    return z.reshape(shape), d.reshape(shape), inlier.reshape(shape)


def _scaled_terms(ax, b, sigma2: float, beta: float,
                  out=(None, None, None, None)):
    """``s = max(Ax + sigma^2, FLOOR)``, ``t = (Ax - b) / sqrt(s)``, ``|t| <= beta``.

    ``out`` names the arrays that receive ``s``, ``t``, one scratch and
    the mask (None: a fresh one); the scratch may be ``s``'s array, which
    then holds ``|t|`` on return instead of ``s``.
    """
    s = np.add(ax, sigma2, out=out[0])
    np.maximum(s, FLOOR, out=s)
    t = np.subtract(ax, b, out=out[1])
    root = np.sqrt(s, out=out[2])
    t /= root
    return s, t, np.less_equal(np.abs(t, out=root), beta, out=out[3])


def _talwar_zd(ax, b, inlier, sigma2: float, bs2, z, d=None) -> None:
    """The closed-form Talwar z of :func:`talwar_weights` in ``z`` and,
    unless ``d`` is None, its D in ``d``, from ``A x``, the data ``b`` and
    the inlier mask; both are 0 off the mask.

    ``s`` is held in D's array (in z's without D) and ``(b + sigma^2)^2``
    in ``bs2``.  Every z and D of the package is formed here, so they are
    bitwise the same whichever path, or frame batch, formed them.
    """
    s = np.add(ax, sigma2, out=z if d is None else d)
    np.maximum(s, FLOOR, out=s)
    np.square(np.add(b, sigma2, out=bs2), out=bs2)
    outlier = ~inlier
    np.square(s, out=z)
    np.divide(bs2, z, out=z)
    np.subtract(1.0, z, out=z)
    z *= 0.5
    np.putmask(z, outlier, 0.0)
    if d is not None:
        np.power(s, 3, out=d)
        np.divide(bs2, d, out=d)
        np.putmask(d, outlier, 0.0)


@dataclass(frozen=True)
class Evaluation:
    """Value, half spectrum ``x_hat`` of x, ``ax = A x``, gradient weights,
    Hessian diagonal and inlier mask at one iterate; arrays are read-only."""

    value: float
    x_hat: np.ndarray
    ax: np.ndarray
    z: np.ndarray
    d: np.ndarray
    inlier_mask: np.ndarray


@dataclass(frozen=True)
class _Trial:
    """An :class:`Evaluation` without z and D, all that a line-search
    trial keeps: the value, ``x_hat``, ``A x`` and the inlier mask, from
    which :meth:`Objective._data_gradient` forms z and D; arrays are
    read-only."""

    value: float
    x_hat: np.ndarray
    ax: np.ndarray
    inlier_mask: np.ndarray


class Objective:
    """J(x) = sum rho(scaled residual) + (lam/2) ||L x||^2 on x >= 0.

    ``loss`` must be a Talwar loss (the default); any other kind raises
    ``ValueError``.  Immutable; shares the operator and data arrays, so
    copies are cheap.  It keeps no array of its own but the penalty
    symbol: whatever forms z and D forms ``(b + sigma^2)^2`` a frame
    batch at a time in its workspace.
    """

    def __init__(
        self,
        op: BlurOperator,
        data,
        sigma: float,
        loss: LossFunction | None = None,
        lam: float = 0.0,
    ):
        self.op = op
        self.data = as_stack(data, op.shape, "data")
        if self.data.shape[0] != op.n_frames:
            raise ValueError(
                f"data has {self.data.shape[0]} frames, operator has {op.n_frames}"
            )
        self.sigma = _arg("sigma", _nonneg_float, sigma)
        self.loss = loss if loss is not None else LossFunction()
        if self.loss.kind != "talwar":
            raise ValueError(
                f"Objective requires the talwar loss (got {self.loss.kind!r}); "
                "other losses can produce indefinite Hessians"
            )
        self.data.setflags(write=False)
        self._set_lam(lam)

    def _set_lam(self, lam) -> None:
        self.lam = _arg("lam", _nonneg_float, lam)
        self._penalty = _frozen(_penalty_symbol(self.op.shape, self.lam))

    def with_lambda(self, lam: float) -> "Objective":
        """The same objective at another ``lam``, sharing the data arrays."""
        other = copy.copy(self)
        other._set_lam(lam)
        return other

    @property
    def n_residuals(self) -> int:
        """Stacked residual length m = frames * pixels."""
        return int(self.data.size)

    def _check_x(self, x, feasible: bool, name: str = "x") -> np.ndarray:
        x = as_image(x, name, self.op.shape)
        if feasible and np.any(x < 0):
            raise ValueError(f"{name} must be elementwise nonnegative")
        return x

    def evaluate(self, x) -> Evaluation:
        """Everything the solver reads at a feasible x, from one ``A x``:
        :meth:`_data_evaluation` with the penalty added to its value, and
        z and D formed a frame batch at a time by :func:`_talwar_zd`.
        Checks ``x`` (finite, nonnegative, on the grid) first."""
        x = self._check_x(x, feasible=True)
        ws = Workspace(self.op.shape, self.op.n_frames)
        ev = self._data_evaluation(x, ws)
        z, d = np.empty_like(ev.ax), np.empty_like(ev.ax)
        sigma2 = self.sigma**2
        stacks = (ev.ax, self.data, ev.inlier_mask, z, d)
        for bs2, _, ax, data, inlier, z_b, d_b in _frame_batches(ws, *stacks):
            _talwar_zd(ax, data, inlier, sigma2, bs2, z_b, d_b)
        return self._penalized(Evaluation(ev.value, ev.x_hat, ev.ax, _frozen(z),
                                          _frozen(d), ev.inlier_mask))

    def _data_evaluation(self, x, ws: Workspace) -> _Trial:
        """:meth:`evaluate` without the penalty, z and D: the value is the
        data term alone, so every field is independent of ``lam``.

        ``x`` is not checked: it must be a feasible float64 image on the
        grid, as the solver's iterates are by construction.  ``A x`` and
        the mask are built in fresh stacks, which the evaluation keeps; the
        rest runs a frame batch at a time in ``ws`` (see
        :func:`.operators._frame_batches`): the per-frame spectra of ``A x``
        in ``ws.stack_spectrum``, then ``t`` in ``ws.stack``.  rho is built
        in one k-frame stack, freed on return, so that ``np.sum`` keeps its
        pairwise order; ``s`` and its root are held there first.
        """
        x_hat = _rdft2(x)
        ax = self.op._forward(x_hat, ws, np.empty(self.data.shape))
        beta, sigma2 = self.loss.beta, self.sigma**2
        rho, inlier = np.empty_like(ax), np.empty(ax.shape, bool)
        for t, _, ax_b, data_b, rho_b, inlier_b in _frame_batches(
                ws, ax, self.data, rho, inlier):
            _scaled_terms(ax_b, data_b, sigma2, beta, out=(rho_b, t, rho_b, inlier_b))
            np.multiply(0.5, t, out=rho_b)
            rho_b *= t
            np.putmask(rho_b, ~inlier_b, 0.5 * beta * beta)
        return _Trial(float(np.sum(rho)), *map(_frozen, (x_hat, ax, inlier)))

    def _penalized(self, data_ev):
        """The evaluation at this ``lam`` from a :meth:`_data_evaluation`
        (or an :class:`Evaluation`) of the same data; no transform.  It
        shares the arrays of ``data_ev``."""
        if not self.lam > 0:
            return data_ev
        half_lap = _laplacian_half(self.op.shape)
        penalty = _spectral_energy(half_lap, data_ev.x_hat, self.op.shape)
        return dataclasses.replace(
            data_ev, value=data_ev.value + 0.5 * self.lam * penalty
        )

    def gradient_at(self, ev: Evaluation) -> np.ndarray:
        """The gradient at an evaluated point, ``A^T z`` of its z plus
        :meth:`_add_penalty_gradient`, in a throwaway workspace; bitwise
        what :meth:`_data_gradient` forms."""
        ws = Workspace(self.op.shape, self.op.n_frames)
        g = _irdft2(_adjoint_sum(self.op._otf_half_adj, ev.z, ws), self.op.shape)
        return self._add_penalty_gradient(g, ev.x_hat, ws)

    def _data_gradient(self, ev: _Trial, ws: Workspace, hessian: bool = True):
        """``(A^T z, D)`` at the point of :meth:`_data_evaluation` ``ev``:
        the gradient of the data term as a fresh image and the Hessian
        weights as a fresh read-only k-frame stack (None without
        ``hessian``); k fft2 + 1 ifft2.

        One pass over the frame batches of ``ws``: per batch
        :func:`_talwar_zd` forms z in a batch buffer made here (no
        k-frame z exists) and D in its frames of the stack (``s`` held
        there first), and z goes straight into the adjoint sum, in frame
        order as :func:`.operators._adjoint_sum` adds it.
        """
        d = np.empty(self.data.shape) if hessian else None
        z, sigma2 = np.empty_like(ws.stack), self.sigma**2
        total, first = ws.stack_spectrum[0], True
        stacks = (self.op._otf_half_adj, ev.ax, self.data, ev.inlier_mask)
        for bs2, spectra, otf_adj, ax, data, inlier, *d_b in _frame_batches(
                ws, *stacks, *((d,) if hessian else ())):
            z_b = z[:len(bs2)]
            _talwar_zd(ax, data, inlier, sigma2, bs2, z_b, *d_b)
            _add_adjoint(otf_adj, z_b, spectra, total, first)
            first = False
        return _irdft2(total, self.op.shape), _frozen(d) if hessian else None

    def _add_penalty_gradient(self, g, x_hat, ws: Workspace) -> np.ndarray:
        """Add ``lam L^T L x`` to ``g`` in place, from ``x_hat = _rdft2(x)``;
        1 ifft2 when lam > 0, none at lam = 0.

        The penalty term keeps its own inverse transform: summing the
        spectra first would change the rounding, and so the solver's path
        at float resolution."""
        if self.lam > 0:
            spec = np.multiply(self._penalty, x_hat, out=ws.spectrum)
            g += _irdft2(spec, self.op.shape, out=ws.image)
        return g

    def scaled_residual(self, x) -> np.ndarray:
        """t = ([Ax] - b) / sqrt([Ax] + sigma^2), per frame."""
        ax = self.op.apply(self._check_x(x, feasible=False))
        return _scaled_terms(ax, self.data, self.sigma**2, self.loss.beta)[1]

    def value(self, x) -> float:
        return self.evaluate(x).value

    def gradient(self, x) -> np.ndarray:
        """A^T z + lam L^T L x."""
        return self.gradient_at(self.evaluate(x))

    def hessian_weights(self, x) -> Evaluation:
        return self.evaluate(x)


@dataclass(frozen=True)
class ConvexityReport:
    """Computed Hessian-diagonal signs for one loss over sample triples."""

    kind: str
    d_values: np.ndarray
    min_value: float

    @property
    def min_sign(self) -> int:
        return int(np.sign(self.min_value))


def convexity_diagnostic(loss: LossFunction, samples) -> ConvexityReport:
    """Evaluate the general-loss Hessian diagonal over (ax, b, sigma) triples.

    A negative entry means the data term can lose positive
    semidefiniteness at some iterate.  Only the Talwar loss stays
    nonnegative for every sample; Huber, for instance, goes negative once
    [Ax] greatly exceeds b + sigma^2.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be (ax, b, sigma) triples")
    if np.any(arr[:, 0] + arr[:, 2] ** 2 <= 0):
        raise ValueError("samples require ax + sigma^2 > 0")
    _, d = chain_rule_weights(loss, arr[:, 0], arr[:, 1], arr[:, 2])
    return ConvexityReport(kind=loss.kind, d_values=d, min_value=float(d.min()))
